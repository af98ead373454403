#!/usr/bin/env bash
# End-to-end smoke of the serving layer from the outside: generate a
# deterministic sharded catalog, start `lcdc serve` as a real separate
# process, drive it with scripted `lcdc client` invocations — including
# one deterministic BUSY rejection against a --max-inflight 0 server —
# and diff a client answer against single-process `lcdc query` on the
# same data. Everything a human would type, verified end to end. A
# codec leg first round-trips a raw column through `lcdc compress`
# (the chooser) and `lcdc decompress`, and checks `lcdc choose`. An
# ingest leg appends a raw batch to the sharded table on disk with
# `lcdc ingest` and checks both front doors count the new rows and
# answer a whole-segment aggregate from the appended segments'
# summaries too, and a stale single-directory copy planted beside the
# shards must make
# `lcdc query` and `lcdc serve` refuse the ambiguous table.
#
# Usage: scripts/serve_smoke.sh [--chaos]
#   (builds the release binary if needed; cleans up after itself)
#
# --chaos additionally runs the fault-injection scenario: a server
# armed with --faults (stalled reads, injected read errors, response
# stalls, torn frames) is hammered by scripted clients; every failure
# must be a typed answer or a clean connection error — never a hang —
# and the server must still drain within 10 seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

CHAOS=0
[ "${1:-}" = "--chaos" ] && CHAOS=1

LCDC=target/release/lcdc
[ -x "$LCDC" ] || cargo build --release

dir="$(mktemp -d)"
serve_out="$dir/serve.out"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  rm -rf "$dir"
}
trap cleanup EXIT

fail() {
  echo "serve_smoke: FAIL: $*" >&2
  exit 1
}

# start_server ERR_FILE [serve flags...]: start `lcdc serve` over the
# catalog on an ephemeral port, stderr to ERR_FILE; sets serve_pid and
# addr (the first stdout line names the port). The address file is
# emptied first: the background redirect truncates it only once the
# process starts, and until then the poll would read a previous
# server's (closed) address.
start_server() {
  local err="$1"
  shift
  : >"$serve_out"
  "$LCDC" serve "$dir/cat" --addr 127.0.0.1:0 "$@" >"$serve_out" 2>"$err" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_out")"
    [ -n "$addr" ] && return 0
    kill -0 "$serve_pid" 2>/dev/null || {
      cat "$err" >&2
      fail "server exited before listening"
    }
    sleep 0.1
  done
  fail "server never announced its address"
}

# wait_server_exit: wait up to 10s for the server to exit.
wait_server_exit() {
  for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || {
      serve_pid=""
      return 0
    }
    sleep 0.1
  done
  fail "server did not exit within 10s of shutdown"
}

# stop_server: ask the server to drain — the shutdown request must be
# acknowledged — and wait for it to exit.
stop_server() {
  "$LCDC" client --addr "$addr" --shutdown >/dev/null 2>"$dir/shutdown.err" \
    || fail "shutdown not acknowledged: $(cat "$dir/shutdown.err")"
  wait_server_exit
}

# --- codec: the chooser picks, the frame round-trips ----------------
# A raw u64 column of runs plus noise, compressed with no --scheme (the
# chooser), decompressed, and compared byte for byte with the input.
perl -e 'binmode STDOUT; for $i (0..19999) {
  $v = 5000 + int($i / 64); $v += ($i * 7919) % 1000 if $i % 37 == 0;
  print pack("Q<", $v) }' >"$dir/raw.bin"
"$LCDC" compress "$dir/raw.bin" -o "$dir/raw.lcdc" --dtype u64 2>"$dir/compress.err" \
  || fail "compress: $(cat "$dir/compress.err")"
picked="$(sed -n 's/.* with //p' "$dir/compress.err")"
"$LCDC" decompress "$dir/raw.lcdc" -o "$dir/back.bin" 2>/dev/null || fail "decompress"
cmp -s "$dir/raw.bin" "$dir/back.bin" || fail "codec round trip differs"
# `choose` lists every default candidate once — exact size, pruned
# floor, or not representable — and names the same winner.
"$LCDC" choose "$dir/raw.bin" --dtype u64 >"$dir/choose.txt"
sed -n '2,/^$/p' "$dir/choose.txt" | awk 'NF { print $1 }' >"$dir/listed.txt"
[ "$(wc -l <"$dir/listed.txt")" = 19 ] || fail "choose does not list 19 candidates"
[ "$(sort -u "$dir/listed.txt" | wc -l)" = 19 ] || fail "choose lists a candidate twice"
grep -qxF "winner: $picked" "$dir/choose.txt" \
  || fail "choose's winner is not compress's pick ($picked)"
echo "serve_smoke: codec round trip with $picked"

# A deterministic catalog: one sharded table, one single-dir table.
"$LCDC" gen "$dir/cat" --table orders --rows 60000 --shards 3 --seed 7
"$LCDC" gen "$dir/cat" --table events --rows 5000 --seed 7

# --- serve on an ephemeral port; the first stdout line names it -----
start_server "$dir/serve.err" --threads 2 --max-inflight 8
echo "serve_smoke: server at $addr"

"$LCDC" client --addr "$addr" --ping | grep -qx pong || fail "ping"

# --- scripted queries, diffed against single-process lcdc query -----
# Identical flags through both front doors; stdout (the rows) must be
# byte-identical. Stats/commentary go to stderr on both sides; outside
# top-k (whose prune counters depend on scheduling) the ledger printed
# there must match too: the segment counters plus every key-unit charge
# (the group-by's and both join sides'): the masked group-by streams
# its key, the unfiltered one folds runs, and the join prunes pairs and
# reads both sides structurally. Days 5..9 live in shard 0 alone: the
# aggregate over them skips the other two shards (`shards_pruned=2`)
# through both front doors, and the top-k over them answers the same.
# Days 100..400 cover whole segments, which the aggregate answers from
# their metadata (`segments_from_metadata`) without a fetch. The
# two-clause aggregate is ordered by the planner's cost model; its
# `qty` clause holds on every row, so each shard's zone tree settles it
# at the root, and days 5..6 again keep only shard 0.
meta_q="--filter day=100..400 --sum qty --min price --max price --count"
pruned_q="--filter day=5..6 --filter qty=0..1000 --sum price --count"
queries=(
  "--filter day=5..9 --sum qty --count"
  "$meta_q"
  "$pruned_q"
  "--group-by day --sum price --filter day=1..4"
  "--group-by day --sum qty"
  "--top-k price:5"
  "--filter day=5..9 --top-k price:5"
  "--filter qty=1..3 --distinct day"
  "--join events --on day"
)
ledger() {
  grep -oE ' (segments|segments_pruned|segments_loaded|shards_pruned|groups_folded|rows_undecoded|join_pairs_pruned|join_rows_undecoded|segments_from_metadata|pushdown\.zonemap_hits)=[0-9]+' "$1" || true
}
# from_metadata ERR_FILE: the segments a query answered from metadata.
from_metadata() { sed -n 's/.* segments_from_metadata=\([0-9]*\).*/\1/p' "$1"; }
# both_doors Q: run Q through the server and through `lcdc query`; the
# rows must be identical, and outside top-k the ledgers too.
both_doors() {
  # shellcheck disable=SC2086  # $1 is a flag list, split on purpose
  "$LCDC" client --addr "$addr" --table orders $1 >"$dir/wire.txt" 2>"$dir/wire.err" \
    || fail "client query failed: $1"
  # shellcheck disable=SC2086
  "$LCDC" query "$dir/cat" --table orders $1 >"$dir/local.txt" 2>"$dir/local.err" \
    || fail "local query failed: $1"
  diff -u "$dir/local.txt" "$dir/wire.txt" \
    || fail "wire answer diverges from lcdc query: $1"
  case "$1" in
    *--top-k*) ;;
    *)
      wire_ledger="$(ledger "$dir/wire.err")"
      [ -n "$wire_ledger" ] || fail "client printed no segment ledger: $1"
      [ "$wire_ledger" = "$(ledger "$dir/local.err")" ] \
        || fail "wire ledger diverges from lcdc query: $1"
      ;;
  esac
}
# two_shards_pruned: the last query skipped two of the three shards.
two_shards_pruned() {
  grep -q ' shards_pruned=2' "$dir/wire.err" \
    || fail "two of three shards not pruned: $(cat "$dir/wire.err")"
}
for q in "${queries[@]}"; do
  both_doors "$q"
  case "$q" in
    "--filter day=5..9 --sum qty --count" | "$pruned_q") two_shards_pruned ;;
  esac
  if [ "$q" = "$meta_q" ]; then
    meta_before="$(from_metadata "$dir/wire.err")"
    [ "${meta_before:-0}" -gt 0 ] \
      || fail "no segment answered from metadata: $(cat "$dir/wire.err")"
  fi
  echo "serve_smoke: wire == local for: $q"
done

# The second registered table answers too.
"$LCDC" client --addr "$addr" --table events --count >/dev/null 2>&1 \
  || fail "second table not served"

# Storage flags must be refused by the server, loudly.
if "$LCDC" client --addr "$addr" --table orders --lazy --count \
  >/dev/null 2>"$dir/refuse.err"; then
  fail "server accepted a storage flag"
fi
grep -q -- --lazy "$dir/refuse.err" || fail "refusal does not name the flag"

# The stats report is fetchable over the wire and accounts for traffic.
"$LCDC" client --addr "$addr" --stats >"$dir/stats.txt" 2>/dev/null
grep -q "served" "$dir/stats.txt" || fail "stats report missing"
# The queries line is the ledger's derived `name=value` report.
grep -q "segments=" "$dir/stats.txt" || fail "stats report lacks query counters"
echo "serve_smoke: stats report fetched"

# --- graceful shutdown: drain, final report on stderr ---------------
stop_server
grep -q "served" "$dir/serve.err" || fail "no final report printed"

# --- ingest: a raw batch grows the sharded table on disk ------------
# Three rows of the demo schema, raw little-endian, one file per
# column: day 5, 300, 599 (one row per shard), qty 1, 2, 3, price -1,
# 0, 7.
count() { sed -n 's/^count  *//p' "$1"; }
"$LCDC" query "$dir/cat" --lazy --table orders --count >"$dir/before.txt" 2>/dev/null \
  || fail "count before ingest"
before="$(count "$dir/before.txt")"
printf '\005\0\0\0\0\0\0\0\054\001\0\0\0\0\0\0\127\002\0\0\0\0\0\0' >"$dir/day.bin"
printf '\001\0\0\0\0\0\0\0\002\0\0\0\0\0\0\0\003\0\0\0\0\0\0\0' >"$dir/qty.bin"
printf '\377\377\377\377\377\377\377\377\0\0\0\0\0\0\0\0\007\0\0\0\0\0\0\0' >"$dir/price.bin"
"$LCDC" ingest "$dir/cat" --table orders --key day "$dir/day.bin" "$dir/qty.bin" \
  "$dir/price.bin" 2>"$dir/ingest.err" || fail "ingest: $(cat "$dir/ingest.err")"
want=$((before + 3))
"$LCDC" query "$dir/cat" --lazy --table orders --count >"$dir/after.txt" 2>/dev/null \
  || fail "count after ingest"
[ "$(count "$dir/after.txt")" = "$want" ] \
  || fail "lcdc query counts $(count "$dir/after.txt") rows after ingest, want $want"
start_server "$dir/serve_ingest.err" --threads 2
"$LCDC" client --addr "$addr" --table orders --count >"$dir/wire_after.txt" 2>/dev/null \
  || fail "client count after ingest"
[ "$(count "$dir/wire_after.txt")" = "$want" ] \
  || fail "the server counts $(count "$dir/wire_after.txt") rows after ingest, want $want"
# Day 300's appended one-row segment lies inside the whole-segment
# range: its summary, written by `lcdc ingest`, answers it through both
# front doors.
both_doors "$meta_q"
[ "$(from_metadata "$dir/wire.err")" = $((meta_before + 1)) ] \
  || fail "the appended segment was not answered from metadata: $(cat "$dir/wire.err")"
# Day 5's appended row sits in shard 0's resident tail, whose zone tree
# the ingest rebuilt; the other shards' tails (days 300, 599) prune.
both_doors "$pruned_q"
two_shards_pruned
stop_server
echo "serve_smoke: ingest grew orders from $before to $want rows"
echo "serve_smoke: $((meta_before + 1)) segments answered from metadata after ingest"

# --- ambiguity: a stale orders/ beside orders.shard*/ is refused ----
cp -r "$dir/cat" "$dir/stale"
"$LCDC" gen "$dir/stale" --table orders --rows 1000 2>/dev/null
if "$LCDC" query "$dir/stale" --table orders --count >/dev/null 2>"$dir/stale_q.err"; then
  fail "lcdc query read an ambiguous table"
fi
grep -q "remove the stale one" "$dir/stale_q.err" \
  || fail "query refusal does not name the ambiguity: $(cat "$dir/stale_q.err")"
if timeout 10 "$LCDC" serve "$dir/stale" --addr 127.0.0.1:0 >/dev/null 2>"$dir/stale_s.err"; then
  fail "lcdc serve started over an ambiguous table"
fi
grep -q "remove the stale one" "$dir/stale_s.err" \
  || fail "serve refusal does not name the ambiguity: $(cat "$dir/stale_s.err")"
echo "serve_smoke: stale orders/ beside the shards refused by query and serve"

# --- deterministic BUSY: a --max-inflight 0 server rejects queries --
start_server "$dir/serve2.err" --max-inflight 0
if "$LCDC" client --addr "$addr" --table orders --count \
  >/dev/null 2>"$dir/busy.err"; then
  fail "query admitted past max-inflight 0"
fi
grep -qi "busy" "$dir/busy.err" || fail "rejection is not a typed BUSY"
# The rejection carries the server's drain estimate, and it is never
# zero — a client that sleeps 0ms would hammer the admission gate.
grep -Eq "retry after [1-9][0-9]*ms" "$dir/busy.err" \
  || fail "BUSY does not carry a nonzero retry-after hint"
# ...while ping still answers: saturation stays observable.
"$LCDC" client --addr "$addr" --ping | grep -qx pong || fail "ping under busy"
stop_server

# --- chaos: a fault-armed server survives scripted abuse ------------
if [ "$CHAOS" = 1 ]; then
  echo "serve_smoke: chaos scenario"
  # Lazy storage keeps disk reads (and their injected faults) on the
  # query path; the seeded plan mixes stalled reads, occasional read
  # errors, response stalls, and torn response frames.
  start_server "$dir/serve3.err" --threads 2 --max-inflight 8 \
    --lazy --cache 2 --session-timeout-ms 2000 \
    --faults "io_read:every=97; io_stall:ms=1,every=1; stall:ms=2,every=5; frame_truncate:p=0.04" \
    --fault-seed 7
  grep -q "fault injection armed" "$dir/serve3.err" \
    || fail "server did not announce its fault plan"

  # Hammer it. Typed errors and torn-frame connection errors are
  # expected; hangs and a dead server are not. Most queries must still
  # answer.
  ok=0
  for i in $(seq 1 30); do
    if "$LCDC" client --addr "$addr" --table orders --retries 2 \
      --filter "day=$i..$((i + 40))" --sum qty --count \
      >/dev/null 2>"$dir/chaos_q.err"; then
      ok=$((ok + 1))
    else
      kill -0 "$serve_pid" 2>/dev/null || {
        cat "$dir/serve3.err" >&2
        fail "chaos server died on query $i"
      }
    fi
  done
  echo "serve_smoke: chaos answered $ok/30 queries through the faults"
  [ "$ok" -ge 5 ] || fail "chaos server answered too few queries ($ok/30)"

  # A 1ms deadline expires against stalled reads: the refusal must be
  # the typed deadline answer, not a generic error or a hang.
  if "$LCDC" client --addr "$addr" --table orders --deadline-ms 1 \
    --filter day=7..49 --count >/dev/null 2>"$dir/chaos_dl.err"; then
    fail "1ms deadline query succeeded against stalled reads"
  fi
  grep -qi "deadline" "$dir/chaos_dl.err" \
    || fail "deadline expiry is not a typed answer: $(cat "$dir/chaos_dl.err")"

  # The stats report stays fetchable (retrying past torn frames).
  stats_ok=0
  for _ in $(seq 1 5); do
    if "$LCDC" client --addr "$addr" --stats >"$dir/stats3.txt" 2>/dev/null \
      && grep -q "deadline" "$dir/stats3.txt"; then
      stats_ok=1
      break
    fi
  done
  [ "$stats_ok" = 1 ] || fail "stats report unavailable under chaos"

  # Drain under 10s: shutdown may race a torn frame (ignore the client
  # exit), but the server must still exit promptly and cleanly.
  "$LCDC" client --addr "$addr" --shutdown >/dev/null 2>&1 || true
  wait_server_exit
  echo "serve_smoke: chaos server drained cleanly"
fi

echo "serve_smoke: OK"
