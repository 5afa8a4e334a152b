#!/usr/bin/env bash
# Net non-test Rust line count: every git-tracked `.rs` file under
# `crates/*/src`, `src/` and `examples/`, counted up to (not including) its
# first top-level `#[cfg(test)]` line.
#
# Usage: scripts/loc.sh [REV]
#   With no argument, counts the working-tree copies of the tracked files;
#   with a git revision (e.g. `scripts/loc.sh HEAD~1`), counts that commit.
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-}"
if [ -n "$rev" ]; then
  files="$(git ls-tree -r --name-only "$rev" -- crates src examples)"
else
  files="$(git ls-files -- crates src examples)"
fi

# Reads every line (no early `exit`), so `git show` never dies of SIGPIPE.
count='/^#\[cfg\(test\)\]/ { stop = 1 } !stop { n++ } END { print n + 0 }'
total=0
while IFS= read -r file; do
  case "$file" in
    crates/*/src/*.rs | src/*.rs | examples/*.rs) ;;
    *) continue ;;
  esac
  if [ -n "$rev" ]; then
    lines="$(git show "$rev:$file" | awk "$count")"
  else
    lines="$(awk "$count" "$file")"
  fi
  total=$((total + lines))
done <<< "$files"
echo "$total"
