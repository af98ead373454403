#!/usr/bin/env bash
# Prints the line count ROADMAP aim 2 drives down: every `.rs` file
# under crates/store/src plus src/bin/lcdc.rs, in total and non-test.
# A file's non-test lines stop at its top-level `#[cfg(test)]` that is
# followed by `mod tests`. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

files=$( (find crates/store/src -name '*.rs'; echo src/bin/lcdc.rs) | sort)
# shellcheck disable=SC2086
total=$(cat $files | wc -l)
# shellcheck disable=SC2086
non_test=$(awk '
    FNR == 1 { n += pending; cut = 0; pending = 0 }
    cut { next }
    pending && /^mod tests/ { cut = 1; next }
    pending { n++; pending = 0 }
    /^#\[cfg\(test\)\]$/ { pending = 1; next }
    { n++ }
    END { print n + 0 }
' $files)
echo "aim-2 lines (crates/store/src + src/bin/lcdc.rs): total $total, non-test $non_test"
