#!/usr/bin/env bash
# Prints the workspace's two source-line counts, benchmark directory
# excluded:
#
#   scripts/loc.sh
#
#   - non-test lines: each library file under crates/*/src, up to its
#     first #[cfg(test)];
#   - lines of Rust: every line of the library files plus the crate and
#     workspace integration tests (crates/*/tests, tests/).
#
# Counts tracked files only, so run it from a checkout after `git add`.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files 'crates/*/src/**.rs' \
  | grep -v '^crates/bench/src/bin/benchmark/' \
  | xargs awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n, "non-test lines (crates/*/src)" }'
git ls-files 'crates/*/src/**.rs' 'crates/*/tests/**.rs' 'tests/**.rs' \
  | grep -v '^crates/bench/src/bin/benchmark/' \
  | xargs cat | wc -l | awk '{ print $1, "lines of Rust (crates/*/src, crates/*/tests, tests/)" }'
