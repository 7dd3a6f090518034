#!/usr/bin/env bash
# Non-test source lines per crate: for every crates/<name>/src/**/*.rs, the
# lines before the first `#[cfg(test)]` (the in-file unit-test module, which
# by convention closes each file). Blank lines and comments count: the
# figure tracks how much there is to read, and a change that only reflows
# or strips comments should not look like a reduction.
#
#   scripts/loc.sh            one line per crate, the total, then the two
#                             sums ROADMAP.md's line gates are written in:
#                             protocol (consensus + rbc + dag) and watchers
#                             (telemetry + inspect + monitor + profiler),
#                             then the two files with a gate of their own,
#                             node.rs and engine.rs, counted whole (tests
#                             included, as ROADMAP.md states those gates)
#   scripts/loc.sh rbc dag    only the named crates (and their sum)
#   scripts/loc.sh --since REV [crate...]
#                             the same rows as a before / after / Δ table:
#                             before is REV (a `git archive` of it, unpacked
#                             in a temporary directory outside the
#                             repository), after is the working tree
set -euo pipefail
cd "$(dirname "$0")/.."

since=""
if [ "${1:-}" = "--since" ]; then
    since=${2:?usage: scripts/loc.sh --since REV [crate...]}
    shift 2
fi

# count ROOT CRATE: the crate's non-test lines under ROOT (0 if absent).
count() {
    local dir="$1/crates/$2/src"
    [ -d "$dir" ] || { echo 0; return; }
    find "$dir" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { in_tests = 0 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                      !in_tests { n++ }
                      END { print n + 0 }'
}

before_root=""
if [ -n "$since" ]; then
    before_root=$(mktemp -d)
    trap 'rm -rf "$before_root"' EXIT
    git archive "$since" crates | tar -x -C "$before_root"
fi

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for dir in crates/*/ ${before_root:+"$before_root"/crates/*/}; do
        crates+=("$(basename "$dir")")
    done
    mapfile -t crates < <(printf '%s\n' "${crates[@]}" | sort -u)
fi

declare -A before after
for crate in "${crates[@]}"; do
    after[$crate]=$(count . "$crate")
    [ -z "$since" ] || before[$crate]=$(count "$before_root" "$crate")
done

# lines ROOT FILE: every line of FILE under ROOT (0 if absent).
lines() {
    [ -f "$1/$2" ] || { echo 0; return; }
    wc -l < "$1/$2"
}

# print NAME BEFORE AFTER: one row of the table.
print() {
    local name=$1 b=$2 a=$3
    if [ -z "$since" ]; then
        printf '%-12s %6d\n' "$name" "$a"
    else
        printf '%-12s %6d %6d %+6d\n' "$name" "$b" "$a" $((a - b))
    fi
}

# row NAME CRATE...: one line, the named crates summed.
row() {
    local name=$1 a=0 b=0 crate
    shift
    for crate in "$@"; do
        a=$((a + ${after[$crate]:-0}))
        b=$((b + ${before[$crate]:-0}))
    done
    print "$name" "$b" "$a"
}

# file NAME PATH: one line, the whole file.
file() {
    print "$1" "$([ -z "$since" ] && echo 0 || lines "$before_root" "$2")" "$(lines . "$2")"
}

[ -z "$since" ] || printf '%-12s %6s %6s %6s\n' crate before after Δ
for crate in "${crates[@]}"; do
    row "$crate" "$crate"
done
row total "${crates[@]}"
if [ $# -eq 0 ]; then
    row protocol consensus rbc dag
    row watchers telemetry inspect monitor profiler
    file node.rs crates/consensus/src/node.rs
    file engine.rs crates/rbc/src/engine.rs
fi
