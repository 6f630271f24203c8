#!/usr/bin/env bash
# Fails on every workspace crate dependency that the crate's own code
# never uses:
#
#   scripts/deps.sh
#
# For each crates/*/Cargo.toml, every `echelon-x` entry under
# [dependencies] (not [dev-dependencies]) must be named as `echelon_x`
# in that crate's non-test, non-comment source: the tracked files under
# crates/*/src, each up to its first #[cfg(test)], with comment lines
# and trailing `//` comments dropped. A dependency used only by tests or
# doc examples belongs under [dev-dependencies]. Prints each offending
# entry and exits 1 if there is one.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

bad=0
checked=0
for manifest in crates/*/Cargo.toml; do
  crate=$(dirname "$manifest")
  deps=$(awk '/^\[/ { section = $0 }
      section == "[dependencies]" && match($0, /^echelon-[a-z0-9-]+/) {
        print substr($0, RSTART, RLENGTH)
      }' "$manifest")
  [ -n "$deps" ] || continue
  source=$(git ls-files "$crate/src/**.rs" \
    | xargs awk 'FNR == 1 { t = 0 } /#\[cfg\(test\)\]/ { t = 1 }
        !t && !/^[ \t]*\/\// { sub(/\/\/.*/, ""); print }')
  for dep in $deps; do
    checked=$((checked + 1))
    name=${dep//-/_}
    if ! grep -qw "$name" <<<"$source"; then
      echo "$manifest: [dependencies] lists $dep, but $crate/src never names $name outside tests and comments"
      bad=$((bad + 1))
    fi
  done
done

if [ "$bad" -gt 0 ]; then
  echo "$bad of $checked [dependencies] entries unused"
  exit 1
fi
echo "$checked [dependencies] entries, each named in its crate's non-test source"
