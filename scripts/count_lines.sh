#!/usr/bin/env bash
# The three size counts ROADMAP.md quotes, over the Rust sources:
#
#   scripts/count_lines.sh
#
#   non-test lines  lines before each file's first column-0
#                   `#[cfg(test)]` (the whole file when it has none),
#                   under crates/*/src and src/; printed with and
#                   without crates/pdrtree/src/reference.rs, which
#                   lib.rs declares `#[cfg(test)] mod reference;` but
#                   this method counts, so figures stay comparable
#   pub fn          lines matching `^\s*pub fn` under the same paths
#   all .rs lines   every .rs line under crates/ and src/, tests
#                   included
#
# Informational: it always exits 0. It counts the checkout it lives in.
set -eu
cd "$(dirname "$0")/.."

reference=crates/pdrtree/src/reference.rs

# Lines before the first column-0 `#[cfg(test)]` of each file named on
# standard input, summed.
non_test() {
    xargs awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }'
}

runtime=$(find crates/*/src src -name '*.rs' | sort)
echo "non-test lines:            $(echo "$runtime" | non_test)"
echo "  without reference.rs:    $(echo "$runtime" | grep -vx "$reference" | non_test)"
echo "pub fn:                    $(echo "$runtime" | xargs grep -hE '^\s*pub fn' | wc -l)"
echo "all .rs lines:             $(find crates src -name '*.rs' | xargs cat | wc -l)"
