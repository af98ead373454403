#!/usr/bin/env bash
# End-to-end smoke of the serving layer from the outside: generate a
# deterministic sharded catalog, start `lcdc serve` as a real separate
# process, drive it with scripted `lcdc client` invocations — including
# one deterministic BUSY rejection against a --max-inflight 0 server —
# and diff a client answer against single-process `lcdc query` on the
# same data. Everything a human would type, verified end to end. A
# codec leg first round-trips a raw column through `lcdc compress`
# (the chooser) and `lcdc decompress`, and checks `lcdc choose`.
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
"$LCDC" serve "$dir/cat" --addr 127.0.0.1:0 --threads 2 --max-inflight 8 \
  >"$serve_out" 2>"$dir/serve.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$serve_out")"
  [ -n "$addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || {
    cat "$dir/serve.err" >&2
    fail "server exited before listening"
  }
  sleep 0.1
done
[ -n "$addr" ] || fail "server never announced its address"
echo "serve_smoke: server at $addr"

"$LCDC" client --addr "$addr" --ping | grep -qx pong || fail "ping"

# --- scripted queries, diffed against single-process lcdc query -----
# Identical flags through both front doors; stdout (the rows) must be
# byte-identical. Stats/commentary go to stderr on both sides; outside
# top-k (whose prune counters depend on scheduling) the segment ledger
# printed there must match too.
queries=(
  "--filter day=5..9 --sum qty --count"
  "--group-by day --sum price --filter day=1..4"
  "--top-k price:5"
  "--filter qty=1..3 --distinct day"
)
ledger() {
  grep -oE ' (segments|segments_pruned|pushdown\.zonemap_hits)=[0-9]+' "$1" || true
}
for q in "${queries[@]}"; do
  # shellcheck disable=SC2086  # $q is a flag list, split on purpose
  "$LCDC" client --addr "$addr" --table orders $q >"$dir/wire.txt" 2>"$dir/wire.err" \
    || fail "client query failed: $q"
  "$LCDC" query "$dir/cat" --table orders $q >"$dir/local.txt" 2>"$dir/local.err" \
    || fail "local query failed: $q"
  diff -u "$dir/local.txt" "$dir/wire.txt" \
    || fail "wire answer diverges from lcdc query: $q"
  case "$q" in
    *--top-k*) ;;
    *)
      wire_ledger="$(ledger "$dir/wire.err")"
      [ -n "$wire_ledger" ] || fail "client printed no segment ledger: $q"
      [ "$wire_ledger" = "$(ledger "$dir/local.err")" ] \
        || fail "wire ledger diverges from lcdc query: $q"
      ;;
  esac
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
"$LCDC" client --addr "$addr" --shutdown 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$serve_pid" 2>/dev/null && fail "server did not exit after shutdown"
serve_pid=""
grep -q "served" "$dir/serve.err" || fail "no final report printed"

# --- deterministic BUSY: a --max-inflight 0 server rejects queries --
"$LCDC" serve "$dir/cat" --addr 127.0.0.1:0 --max-inflight 0 \
  >"$serve_out" 2>"$dir/serve2.err" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$serve_out")"
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || fail "busy server never announced its address"
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
"$LCDC" client --addr "$addr" --shutdown 2>/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
serve_pid=""

# --- chaos: a fault-armed server survives scripted abuse ------------
if [ "$CHAOS" = 1 ]; then
  echo "serve_smoke: chaos scenario"
  # Lazy storage keeps disk reads (and their injected faults) on the
  # query path; the seeded plan mixes stalled reads, occasional read
  # errors, response stalls, and torn response frames.
  "$LCDC" serve "$dir/cat" --addr 127.0.0.1:0 --threads 2 --max-inflight 8 \
    --lazy --cache 2 --session-timeout-ms 2000 \
    --faults "io_read:every=97; io_stall:ms=1,every=1; stall:ms=2,every=5; frame_truncate:p=0.04" \
    --fault-seed 7 >"$serve_out" 2>"$dir/serve3.err" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^listening on //p' "$serve_out")"
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || {
      cat "$dir/serve3.err" >&2
      fail "chaos server exited before listening"
    }
    sleep 0.1
  done
  [ -n "$addr" ] || fail "chaos server never announced its address"
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
  drained=0
  for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || {
      drained=1
      break
    }
    sleep 0.1
  done
  [ "$drained" = 1 ] || fail "chaos server did not drain within 10s"
  serve_pid=""
  echo "serve_smoke: chaos server drained cleanly"
fi

echo "serve_smoke: OK"
