#!/usr/bin/env bash
# Prints two line counts, each in total and non-test:
#  1. the one ROADMAP aim 2 drives down: every `.rs` file under
#     crates/store/src plus src/bin/lcdc.rs;
#  2. the codec layer: every `.rs` file under crates/bitpack/src plus
#     crates/core/src/schemes (ROADMAP items 3 and 20).
# A file's non-test lines stop at its top-level `#[cfg(test)]` that is
# followed by `mod tests`. Run from anywhere: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Print "total T, non-test N" for the files named on the command line.
count() {
    local total non_test
    total=$(cat "$@" | wc -l)
    non_test=$(awk '
        FNR == 1 { n += pending; cut = 0; pending = 0 }
        cut { next }
        pending && /^mod tests/ { cut = 1; next }
        pending { n++; pending = 0 }
        /^#\[cfg\(test\)\]$/ { pending = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$@")
    echo "total $total, non-test $non_test"
}

mapfile -t aim2 < <( (find crates/store/src -name '*.rs'; echo src/bin/lcdc.rs) | sort)
echo "aim-2 lines (crates/store/src + src/bin/lcdc.rs): $(count "${aim2[@]}")"
mapfile -t codec < <(find crates/bitpack/src crates/core/src/schemes -name '*.rs' | sort)
echo "codec lines (crates/bitpack/src + crates/core/src/schemes): $(count "${codec[@]}")"
