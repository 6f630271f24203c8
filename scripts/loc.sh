#!/usr/bin/env bash
# Prints the workspace's two source-line counts and its run surface,
# benchmark directory excluded:
#
#   scripts/loc.sh
#
#   - non-test lines: each library file under crates/*/src, up to its
#     first #[cfg(test)];
#   - lines of Rust: every line of the library files plus the crate and
#     workspace integration tests (crates/*/tests, tests/);
#   - run surface: the public functions and methods named run* or drive*
#     in the same non-test part of the library files (accessors ending in
#     _stats excluded), as module::name.
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
git ls-files 'crates/*/src/**.rs' \
  | grep -v '^crates/bench/src/bin/benchmark/' \
  | xargs awk 'FNR == 1 { t = 0; m = FILENAME; sub(/.*\//, "", m); sub(/\.rs$/, "", m) }
      /#\[cfg\(test\)\]/ { t = 1 }
      !t && match($0, /^[ \t]*pub fn (run|drive)[a-z_]*/) {
        f = substr($0, RSTART, RLENGTH); sub(/.*pub fn /, "", f)
        if (f !~ /_stats$/) { n++; names = names " " m "::" f }
      }
      END { print n, "public run/drive functions:" names }'
