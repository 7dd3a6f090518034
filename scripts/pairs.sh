#!/usr/bin/env bash
# Alternating paired runs of the repo benchmark for two builds — the rule
# every perf PR applies (EXPERIMENTS.md, "Profiling workflow"): the same
# binary drifts 5–10 % over a quarter of an hour on this kind of host, so
# two builds are compared only run against neighbouring run, alternating
# which side goes first.
#
#   scripts/pairs.sh <A> <B> [--workload W] [--seed S] [--pairs N] [--seconds T]
#                    [--metric host_cpu_s|host_peak_rss_mb]
#
# A and B are each a git revision (its benchmark/ is built from a
# `git archive` copy into a target directory of its own) or the path of a
# clanbft-benchmark binary already built — the way to measure an
# uncommitted tree:
#
#   CARGO_TARGET_DIR=target/pairs/tgt-work cargo build --release --offline \
#       --manifest-path benchmark/Cargo.toml
#   scripts/pairs.sh HEAD target/pairs/tgt-work/release/clanbft-benchmark
#
# Prints each pair's value of the judged metric (--metric, host_cpu_s by
# default), then per side the median with quartiles of host_cpu_s,
# host_peak_rss_mb and setup_s, each with its ratio of medians, and the wins
# on the judged metric (the only one the verdict reads; lower is better for
# both). B is called better only if, over at least ten pairs, it wins nine
# tenths of them and the medians lie further apart than A's interquartile
# range. No verdict at all if any sim_* value or ok_share differs between
# any two runs: the two builds then did not do the same work. Defaults:
# clan50_sat, seed 11, ten pairs, BENCHMARK.json's run_seconds, host_cpu_s.
# Everything is written under $PAIRS_DIR (default target/pairs). Build
# nothing while it runs.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
}
[ $# -ge 2 ] || usage
A=$1
B=$2
shift 2
WORKLOAD=clan50_sat
SEED=11
PAIRS=10
METRIC=host_cpu_s
SECS=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --workload) WORKLOAD=$2 ;;
        --seed) SEED=$2 ;;
        --pairs) PAIRS=$2 ;;
        --seconds) SECS=$2 ;;
        --metric) METRIC=$2 ;;
        *) usage ;;
    esac
    shift 2
done
case $METRIC in
    host_cpu_s) JUDGED=cpu ;;
    host_peak_rss_mb) JUDGED=rss ;;
    *) usage ;;
esac

DIR=${PAIRS_DIR:-target/pairs}
mkdir -p "$DIR"
DIR=$(cd "$DIR" && pwd)

# The benchmark binary for a revision or a binary path.
resolve() {
    if [ -f "$1" ] && [ -x "$1" ]; then
        echo "$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
        return
    fi
    local sha
    sha=$(git rev-parse --verify --quiet "$1^{commit}") || {
        echo "pairs.sh: $1 is neither an executable nor a revision" >&2
        exit 2
    }
    local bin=$DIR/tgt-$sha/release/clanbft-benchmark
    if [ ! -x "$bin" ]; then
        echo "pairs.sh: building benchmark/ at $sha" >&2
        rm -rf "$DIR/src-$sha"
        mkdir -p "$DIR/src-$sha"
        git archive "$sha" | tar -x -C "$DIR/src-$sha"
        CARGO_TARGET_DIR=$DIR/tgt-$sha cargo build --release --offline --quiet \
            --manifest-path "$DIR/src-$sha/benchmark/Cargo.toml" >&2
    fi
    echo "$bin"
}
BIN_A=$(resolve "$A")
BIN_B=$(resolve "$B")

# One run; the result object is the last line of standard output.
run() { # side binary
    CARGO_TARGET_DIR=$DIR/run-$1 "$2" --workload "$WORKLOAD" --seed "$SEED" \
        --seconds "$SECS" --trace 0 | tail -1
}
metric() { # name < result object
    sed -n "s/.*\"$1\":{\"unit\":\"[^\"]*\",\"value\":\([^}]*\)}.*/\1/p"
}
# Everything a same-seed run must repeat exactly.
simulated() { # < result object
    grep -o '"\(sim_[a-z0-9_]*\|ok_share\)":{[^}]*}' | sort | tr '\n' ' '
}

echo "A = $A ($BIN_A)"
echo "B = $B ($BIN_B)"
echo "$WORKLOAD, seed $SEED, --seconds $SECS, $PAIRS pairs, judged on $METRIC"
: > "$DIR/a.cpu"; : > "$DIR/b.cpu"; : > "$DIR/a.rss"; : > "$DIR/b.rss"
: > "$DIR/a.setup"; : > "$DIR/b.setup"
REFERENCE=
SAME=1
for i in $(seq 1 "$PAIRS"); do
    if [ $((i % 2)) -eq 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        if [ "$side" = a ]; then bin=$BIN_A; else bin=$BIN_B; fi
        out=$(run "$side" "$bin")
        echo "$out" | metric host_cpu_s >> "$DIR/$side.cpu"
        echo "$out" | metric host_peak_rss_mb >> "$DIR/$side.rss"
        echo "$out" | metric setup_s >> "$DIR/$side.setup"
        sim=$(echo "$out" | simulated)
        REFERENCE=${REFERENCE:-$sim}
        if [ "$sim" != "$REFERENCE" ]; then
            SAME=0
            echo "pair $i side $side: simulated numbers differ from the first run's:" >&2
            echo "  first: $REFERENCE" >&2
            echo "  this:  $sim" >&2
        fi
    done
    a=$(tail -1 "$DIR/a.$JUDGED")
    b=$(tail -1 "$DIR/b.$JUDGED")
    awk -v i="$i" -v a="$a" -v b="$b" -v o="$order" -v m="$METRIC" 'BEGIN {
        printf "pair %2d  %s  A %.3f  B %.3f  B/A %.3f  (%s first)\n", i, m, a, b, b / a, toupper(substr(o, 1, 1))
    }'
done

# Median and quartiles (linear interpolation between order statistics).
summary() { # file
    sort -g "$1" | awk '{ v[NR] = $1 } END {
        split("0.25 0.5 0.75", q, " ")
        for (k = 1; k <= 3; k++) {
            h = (NR - 1) * q[k] + 1; lo = int(h); hi = lo < NR ? lo + 1 : lo
            r[k] = v[lo] + (h - lo) * (v[hi] - v[lo])
        }
        print r[2], r[1], r[3]
    }'
}
read -r A_MED A_Q1 A_Q3 < <(summary "$DIR/a.cpu")
read -r B_MED B_Q1 B_Q3 < <(summary "$DIR/b.cpu")
read -r A_RSS A_RSS1 A_RSS3 < <(summary "$DIR/a.rss")
read -r B_RSS B_RSS1 B_RSS3 < <(summary "$DIR/b.rss")
read -r A_SET A_SET1 A_SET3 < <(summary "$DIR/a.setup")
read -r B_SET B_SET1 B_SET3 < <(summary "$DIR/b.setup")
read -r A_J A_J1 A_J3 < <(summary "$DIR/a.$JUDGED")
read -r B_J _ _ < <(summary "$DIR/b.$JUDGED")
WINS=$(paste "$DIR/a.$JUDGED" "$DIR/b.$JUDGED" | awk '$2 < $1 { b++ } $1 < $2 { a++ } END { print b + 0, a + 0 }')
read -r B_WINS A_WINS <<< "$WINS"
awk -v am="$A_MED" -v a1="$A_Q1" -v a3="$A_Q3" -v bm="$B_MED" -v b1="$B_Q1" -v b3="$B_Q3" \
    -v ar="$A_RSS" -v ar1="$A_RSS1" -v ar3="$A_RSS3" -v br="$B_RSS" -v br1="$B_RSS1" -v br3="$B_RSS3" \
    -v as="$A_SET" -v as1="$A_SET1" -v as3="$A_SET3" -v bs="$B_SET" -v bs1="$B_SET1" -v bs3="$B_SET3" \
    -v m="$METRIC" -v aj="$A_J" -v aj1="$A_J1" -v aj3="$A_J3" -v bj="$B_J" \
    -v bw="$B_WINS" -v aw="$A_WINS" -v n="$PAIRS" -v same="$SAME" 'BEGIN {
    printf "host_cpu_s        A %.3f [%.3f, %.3f]   B %.3f [%.3f, %.3f]   B/A %.3f\n", am, a1, a3, bm, b1, b3, bm / am
    printf "host_peak_rss_mb  A %.1f [%.1f, %.1f]   B %.1f [%.1f, %.1f]   B/A %.3f\n", ar, ar1, ar3, br, br1, br3, br / ar
    printf "setup_s (ms)      A %.3f [%.3f, %.3f]   B %.3f [%.3f, %.3f]   B/A %.3f\n", as * 1e3, as1 * 1e3, as3 * 1e3, bs * 1e3, bs1 * 1e3, bs3 * 1e3, bs / as
    printf "%s B/A = %.3f (base A %.3f); B wins %d/%d, A wins %d/%d\n", m, bj / aj, aj, bw, n, aw, n
    if (!same) {
        print "no verdict: a sim_* value or ok_share differed between runs (see above)"
        exit 1
    }
    if (n < 10) {
        print "no verdict: the rule wants at least ten pairs"
        exit 0
    }
    apart = (aj > bj ? aj - bj : bj - aj) > aj3 - aj1
    if (bw * 10 >= n * 9 && bj < aj && apart) print "verdict: B is better on " m
    else if (aw * 10 >= n * 9 && aj < bj && apart) print "verdict: B is worse on " m
    else print "verdict: unresolved on " m " (needs 9/10 wins and medians further apart than A'"'"'s interquartile range)"
}'
