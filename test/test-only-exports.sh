#!/bin/sh
# Usage: test-only-exports.sh FILE...
#
# Prints "MLI NAME" for each [val NAME] of a given .mli that no given .ml
# other than the module's own names as a whole word: the exports nothing
# calls but tests. Give it the library interfaces and the .ml files of
# every non-test directory. The search is textual, so a common name
# counts as used and the list is a lower bound.

mlis=""
mls=""
for f in "$@"; do
  case "$f" in
  *.mli) mlis="$mlis $f" ;;
  *.ml) mls="$mls $f" ;;
  esac
done

{
  for mli in $mlis; do
    own="${mli%.mli}.ml"
    others=""
    for ml in $mls; do
      [ "$ml" = "$own" ] || others="$others $ml"
    done
    for v in $(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u); do
      # shellcheck disable=SC2086
      grep -q -w -F -e "$v" $others || echo "${mli#../} $v"
    done
  done
} | LC_ALL=C sort
