#!/bin/sh
# Drives one dhpfc setting end to end and checks what it promises.
#
#   dhpfc_settings_test.sh <dhpfc> <examples-dir> <case> [ON|OFF]
#
# The optional last argument is the build's DHPF_OBS value; metric-value
# checks are skipped when observability is compiled out. Every case works
# in a private scratch directory, which is also the TMPDIR the launcher
# creates its mesh directories in, and removes it on exit.

set -u
DHPFC=$1
EX=$2
CASE=$3
OBS=${4:-ON}
PROG=$EX/jacobi.hpf

W=$(mktemp -d "${TMPDIR:-/tmp}/dhpfc_settings.XXXXXX") || exit 1
trap 'rm -rf "$W"' EXIT
TMPDIR=$W/tmp
export TMPDIR
mkdir "$TMPDIR"

fail() {
  echo "FAIL ($CASE): $*"
  exit 1
}

case $CASE in
ablations)
  out=$("$DHPFC" pipeline "$PROG" --no-split --no-coalesce --no-inplace) ||
    fail "exit $?"
  echo "$out" | grep -qx 'reference check: OK' || fail "no check: $out"
  ;;
dump-after)
  n=$("$DHPFC" compile "$PROG" -o /dev/null -dump-after=all 2>&1 |
    grep -c 'IR dump after')
  [ "$n" -eq 5 ] || fail "$n 'IR dump after' banners, want 5"
  ;;
no-check)
  out=$("$DHPFC" pipeline "$PROG" --no-check --no-validity) || fail "exit $?"
  echo "$out" | grep -q "^ran 'jacobi'" || fail "did not run: $out"
  ! echo "$out" | grep -q 'reference check' || fail "still checked: $out"
  ;;
threads)
  out=$("$DHPFC" pipeline "$PROG" --threads=1) || fail "exit $?"
  echo "$out" | grep -qx 'reference check: OK' || fail "no check: $out"
  ;;
keep-mesh)
  out=$("$DHPFC" launch "$PROG" --keep-mesh) || fail "exit $?"
  dir=$(echo "$out" | sed -n 's/^mesh directory kept at //p')
  [ -n "$dir" ] && [ -d "$dir" ] || fail "no kept directory in: $out"
  rm -rf "$dir"
  ;;
timeout)
  out=$("$DHPFC" launch "$PROG" --timeout-ms=1 2>&1)
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" | grep -q 'launch deadline (1 ms) expired' ||
    fail "no deadline diagnostic: $out"
  [ -z "$(ls -A "$TMPDIR")" ] || fail "left behind: $(ls -A "$TMPDIR")"
  ;;
rt-bin)
  "$DHPFC" launch "$PROG" --rt-bin=/nonexistent
  st=$?
  [ "$st" -eq 2 ] || fail "exit $st, want 2"
  ;;
pset-cache-off)
  "$DHPFC" compile "$PROG" -o "$W/on.spmd" || fail "cached compile failed"
  DHPF_PSET_CACHE=0 "$DHPFC" compile "$PROG" -o "$W/off.spmd" \
    --metrics="$W/m.txt" || fail "uncached compile failed"
  cmp "$W/on.spmd" "$W/off.spmd" || fail "the programs differ"
  [ "$OBS" = OFF ] || grep -qx 'pset.cache.hits 0' "$W/m.txt" ||
    fail "the disabled cache scored hits"
  ;;
metrics-env)
  DHPF_METRICS=$W/m.txt "$DHPFC" compile "$PROG" -o /dev/null ||
    fail "exit $?"
  [ -s "$W/m.txt" ] || fail "DHPF_METRICS file not written"
  ;;
*)
  echo "unknown case '$CASE'"
  exit 2
  ;;
esac
echo "ok ($CASE)"
