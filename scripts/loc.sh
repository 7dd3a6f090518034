#!/usr/bin/env bash
# Non-test source lines per crate: for every crates/<name>/src/**/*.rs, the
# lines before the first `#[cfg(test)]` (the in-file unit-test module, which
# by convention closes each file). Blank lines and comments count: the
# figure tracks how much there is to read, and a change that only reflows
# or strips comments should not look like a reduction.
#
#   scripts/loc.sh            one line per crate, then the total
#   scripts/loc.sh rbc dag    only the named crates (and their sum)
set -euo pipefail
cd "$(dirname "$0")/.."

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    for dir in crates/*/; do
        crates+=("$(basename "$dir")")
    done
fi

total=0
for crate in "${crates[@]}"; do
    lines=$(find "crates/$crate/src" -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR == 1 { in_tests = 0 }
                      /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
                      !in_tests { n++ }
                      END { print n + 0 }')
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
