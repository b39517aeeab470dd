#!/usr/bin/env bash
# Docs integrity check, run by the CI docs job:
#
#  1. every relative markdown link in docs/*.md (and README.md) resolves
#     to an existing file or directory;
#  2. every repo path named in docs/*.md prose and tables
#     (src/..., bench/..., examples/..., scripts/..., tests/...) exists
#     -- so ARCHITECTURE.md cannot drift from the tree it describes;
#  3. required sections exist: docs features that CI gates on (kernel
#     tuning, failure modes, ...) must keep their operator docs -- a
#     refactor that drops the section fails here, not in a reader's lap.
#
# Pure grep/sed; no dependencies beyond coreutils.
set -u
cd "$(dirname "$0")/.."

broken=$(
  # 1. relative markdown links [text](target)
  for md in docs/*.md README.md; do
    [ -f "$md" ] || continue
    base_dir=$(dirname "$md")
    grep -oE '\]\([^)]+\)' "$md" | sed -e 's/^](//' -e 's/)$//' |
    while IFS= read -r target; do
      case "$target" in
        http://*|https://*|mailto:*|'#'*) continue ;;
      esac
      path="${target%%#*}"   # strip in-page anchors
      [ -n "$path" ] || continue
      [ -e "$base_dir/$path" ] || echo "BROKEN link in $md: $target"
    done
  done
  # 3. required sections (file<TAB>heading pairs, literal match)
  while IFS='	' read -r file heading; do
    [ -n "$file" ] || continue
    if [ ! -f "$file" ]; then
      echo "BROKEN required-doc file missing: $file"
    elif ! grep -qF "$heading" "$file"; then
      echo "BROKEN required section missing in $file: $heading"
    fi
  done <<'SECTIONS'
docs/OPERATIONS.md	## Kernel tuning
docs/OPERATIONS.md	### Reading BENCH_kernel.json
docs/OPERATIONS.md	## Autotuner
docs/ARCHITECTURE.md	## The autotuner
docs/OPERATIONS.md	## Failure modes & recovery
docs/OPERATIONS.md	## Backpressure and overload semantics
docs/OPERATIONS.md	## Tracing a slow solve
docs/ARCHITECTURE.md	## Invariants
docs/PROTOCOL.md	## Framing
docs/PROTOCOL.md	## Error statuses and retryability
docs/PROTOCOL.md	## Trace propagation
SECTIONS
  # 2. repo paths mentioned in the docs
  for md in docs/*.md; do
    [ -f "$md" ] || continue
    grep -oE '(src|bench|examples|scripts|tests)/[A-Za-z0-9_./-]+' "$md" |
    sed 's/[.,;:]$//' | sort -u |
    while IFS= read -r path; do
      [ -e "$path" ] || echo "BROKEN path reference in $md: $path"
    done
  done
)

if [ -n "$broken" ]; then
  printf '%s\n' "$broken"
  echo "docs check FAILED: $(printf '%s\n' "$broken" | wc -l) broken reference(s)"
  exit 1
fi
echo "docs check OK: all links and path references resolve"
