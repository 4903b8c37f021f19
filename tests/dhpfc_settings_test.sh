#!/bin/sh
# Drives one dhpfc or dhpf_rt setting, or one input they must refuse, end
# to end and checks what it promises.
#
#   dhpfc_settings_test.sh <dhpfc> <examples-dir> <case>
#
# dhpf_rt is found where dhpfc launch finds it. Every case works in a
# private scratch directory, which is also the TMPDIR the launcher creates
# its mesh directories in, and removes it on exit.

set -u
DHPFC=$1
EX=$2
CASE=$3
PROG=$EX/jacobi.hpf
REGRESS=$(dirname "$0")/../examples/regress
RT=$(dirname "$DHPFC")/../dhpf_rt/dhpf_rt

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
  out=$("$DHPFC" run "$PROG" --no-split --no-coalesce --no-inplace) ||
    fail "exit $?"
  echo "$out" | grep -qx 'reference check: OK' || fail "no check: $out"
  ;;
dump-after)
  n=$("$DHPFC" compile "$PROG" -o /dev/null -dump-after=all 2>&1 |
    grep -c 'IR dump after')
  [ "$n" -eq 6 ] || fail "$n 'IR dump after' banners, want 6"
  ;;
no-check)
  out=$("$DHPFC" run "$PROG" --no-check) || fail "exit $?"
  echo "$out" | grep -q "^ran 'jacobi'" || fail "did not run: $out"
  ! echo "$out" | grep -q 'reference check' || fail "still checked: $out"
  ;;
threads)
  out=$("$DHPFC" run "$PROG" --threads=1) || fail "exit $?"
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
  grep -qx 'pset.cache.hits 0' "$W/m.txt" ||
    fail "the disabled cache scored hits"
  ;;
metrics-env)
  DHPF_METRICS=$W/m.txt "$DHPFC" compile "$PROG" -o /dev/null ||
    fail "exit $?"
  [ -s "$W/m.txt" ] || fail "DHPF_METRICS file not written"
  ;;
rt-procs-zero | rt-procs-nonnumeric | rt-procs-negative | rt-rank-nonnumeric)
  # A malformed value is a usage error naming the token, before the rank
  # joins (and waits on) any mesh.
  case $CASE in
  rt-procs-zero) args="--rank=0 --procs=0,4" bad=0 ;;
  rt-procs-nonnumeric) args="--rank=0 --procs=2,x" bad=x ;;
  rt-procs-negative) args="--rank=0 --procs=-2,-2" bad=-2 ;;
  rt-rank-nonnumeric) args="--rank=abc" bad=abc ;;
  esac
  "$DHPFC" compile "$PROG" -o "$W/p.spmd" >/dev/null || fail "compile failed"
  mkdir "$W/mesh"
  # shellcheck disable=SC2086
  out=$(timeout 4 "$RT" "$W/p.spmd" $args --mesh "$W/mesh" --result "$W/r" 2>&1)
  st=$?
  [ "$st" -eq 2 ] || fail "exit $st, want 2: $out"
  echo "$out" | grep -q "'$bad'" || fail "'$bad' not named: $out"
  ;;
footprint-run | footprint-launch | footprint-rank)
  # Arrays of 4e9 x 4e9 elements: refused with a message naming the array,
  # never an abort, a wrapped size or a hang.
  sed 's/1:16/1:4000000000/g' "$PROG" >"$W/huge.hpf"
  "$DHPFC" compile "$W/huge.hpf" -o "$W/huge.spmd" >/dev/null ||
    fail "compile failed"
  case $CASE in
  footprint-run) out=$("$DHPFC" run "$W/huge.spmd" 2>&1) ;;
  footprint-launch) out=$("$DHPFC" launch "$W/huge.spmd" -p 4 2>&1) ;;
  footprint-rank)
    mkdir "$W/mesh"
    out=$(timeout 4 "$RT" "$W/huge.spmd" --rank=0 --mesh "$W/mesh" \
      --result "$W/r" 2>&1)
    ;;
  esac
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" | grep -q "array 'U'" || fail "array U not named: $out"
  [ -z "$(ls -A "$TMPDIR")" ] || fail "left behind: $(ls -A "$TMPDIR")"
  ;;
footprint-template-run | footprint-template-launch | footprint-template-rank)
  # A template that holds no cell under this run's parameters (N = 0):
  # refused with a message naming the template, never a division by zero.
  sed -e 's/^program jacobi$/&\nparam N/' -e 's/template T(1:16,/template T(1:N,/' \
    "$PROG" >"$W/empty.hpf"
  "$DHPFC" compile "$W/empty.hpf" -o "$W/empty.spmd" >/dev/null ||
    fail "compile failed"
  case $CASE in
  footprint-template-run)
    out=$("$DHPFC" run "$W/empty.spmd" --param=N=0 2>&1)
    ;;
  footprint-template-launch)
    out=$("$DHPFC" launch "$W/empty.spmd" -p 4 --param=N=0 2>&1)
    ;;
  footprint-template-rank)
    mkdir "$W/mesh"
    out=$(timeout 4 "$RT" "$W/empty.spmd" --rank=0 --param=N=0 \
      --mesh "$W/mesh" --result "$W/r" 2>&1)
    ;;
  esac
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" | grep -q "template 'T'(1:0, 1:16)" ||
    fail "template T not named: $out"
  [ -z "$(ls -A "$TMPDIR")" ] || fail "left behind: $(ls -A "$TMPDIR")"
  ;;
shape-wrap-p | shape-wrap-procs)
  # 2^32 processors, from -p through the registry's 2 x (P/2) shape or
  # from explicit extents: refused naming the processor array and the
  # shape, never a count wrapped to 0. Only `run`: were the check lost, a
  # launch could start a process per processor.
  "$DHPFC" compile "$PROG" -o "$W/p.spmd" >/dev/null || fail "compile failed"
  case $CASE in
  shape-wrap-p) args="-p 4294967296" shape="(2, 2147483648)" ;;
  shape-wrap-procs) args="--procs=65536,65536" shape="(65536, 65536)" ;;
  esac
  # shellcheck disable=SC2086
  out=$("$DHPFC" run "$W/p.spmd" $args 2>&1)
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" | grep -qF "processor array 'PR'$shape" ||
    fail "array PR$shape not named: $out"
  ;;
shape-fixed-run | shape-fixed-launch)
  # --procs=1,2 against the fixed PR(2, 2): refused naming both shapes,
  # before any rank process starts.
  "$DHPFC" compile "$REGRESS/blockcyclic.hpf" -o "$W/b.spmd" >/dev/null ||
    fail "compile failed"
  case $CASE in
  shape-fixed-run) out=$("$DHPFC" run "$W/b.spmd" --procs=1,2 2>&1) ;;
  shape-fixed-launch) out=$("$DHPFC" launch "$W/b.spmd" --procs=1,2 2>&1) ;;
  esac
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" |
    grep -qF "processor array 'PR' is declared (2, 2); the run asked for (1, 2)" ||
    fail "shapes not named: $out"
  [ -z "$(ls -A "$TMPDIR")" ] || fail "left behind: $(ls -A "$TMPDIR")"
  ;;
subscript-bounds)
  # B(i+1) over i = 1..16 reads B(17): a compile error naming the nest,
  # the statement, the reference and B's bounds; no program is written.
  cat >"$W/oob.hpf" <<'EOF'
program oob
processors P(4)
template T(1:16)
array A(1:16) align (i) with T(i)
array B(1:16) align (i) with T(i)
distribute T(block) onto P

procedure main
  nest copy
    do i = 1, 16
    A(i) = B(i+1)
  endnest
endprocedure
EOF
  out=$("$DHPFC" compile "$W/oob.hpf" -o "$W/oob.spmd" 2>&1)
  st=$?
  [ "$st" -eq 1 ] || fail "exit $st, want 1: $out"
  echo "$out" |
    grep -qF "nest 'copy' statement S0 reads B(i+1) outside array 'B'(1:16)" ||
    fail "reference not named: $out"
  [ ! -e "$W/oob.spmd" ] || fail "a program was written"
  ;;
trace-launch)
  # Every rank's set-up phases and the launcher's own phases have spans in
  # the merged trace: once per rank, once for the launcher.
  "$DHPFC" launch "$PROG" -p 4 --trace="$W/t.json" >/dev/null ||
    fail "exit $?"
  for span in rank:parse rank:mesh rank:setup rank:seed rank:dump \
    launch:spawn launch:wait launch:merge; do
    n=$(grep -o "\"name\": \"$span\"" "$W/t.json" | wc -l)
    case $span in
    rank:*) want=4 ;;
    *) want=1 ;;
    esac
    [ "$n" -eq "$want" ] || fail "$n '$span' spans, want $want"
  done
  # One clock across lanes: every rank forks inside launch:spawn and is
  # reaped inside launch:wait, so all its spans lie between the two.
  python3 - "$W/t.json" <<'EOF' || fail "rank spans outside launch:spawn..launch:wait"
import json, sys
ev = [e for e in json.load(open(sys.argv[1]))["traceEvents"]
      if e.get("ph") == "X"]
span = {e["name"]: e for e in ev if e["pid"] == 0}
lo = span["launch:spawn"]["ts"]
hi = span["launch:wait"]["ts"] + span["launch:wait"]["dur"]
out = [e for e in ev if e["pid"] != 0 and
       not lo <= e["ts"] <= e["ts"] + e["dur"] <= hi]
for e in out[:5]:
    print("outside [%d, %d]: %s" % (lo, hi, e))
sys.exit(1 if out or len(ev) == len(span) else 0)
EOF
  ;;
kernel-cache-warm | kernel-cache-touch)
  # The kernel cache keys by the compiler's executables, not by its
  # --version output: a warm run or launch starts no compiler process,
  # and a changed compiler file compiles again.
  echo 'int x;' | cc -x c -c -o /dev/null - 2>/dev/null || {
    echo "skip ($CASE): no C compiler answers"
    exit 77
  }
  cat >"$W/cc.sh" <<EOF
#!/bin/sh
echo "\$*" >>"$W/cc.log"
exec cc "\$@"
EOF
  chmod +x "$W/cc.sh"
  DHPF_CC=$W/cc.sh
  DHPF_KERNEL_CACHE=$W/kc
  export DHPF_CC DHPF_KERNEL_CACHE
  : >"$W/cc.log"
  calls() { wc -l <"$W/cc.log"; }
  runs() {
    "$DHPFC" run "$PROG" -p 4 --engine=native 2>&1 |
      grep -qx 'reference check: OK' || fail "native run did not check"
  }
  runs
  [ "$(calls)" -ge 1 ] || fail "the cold run never called the compiler"
  n=$(calls)
  case $CASE in
  kernel-cache-warm)
    runs
    out=$("$DHPFC" launch "$PROG" -p 4 --engine=native 2>&1) ||
      fail "launch: exit $?"
    echo "$out" | grep -q 'in-process agreement (native engine): OK' ||
      fail "launch did not agree: $out"
    [ "$(calls)" -eq "$n" ] ||
      fail "a warm run called the compiler: $(tail -n +$((n + 1)) "$W/cc.log")"
    ;;
  kernel-cache-touch)
    chmod 700 "$W/cc.sh"
    runs
    [ "$(calls)" -gt "$n" ] || fail "no compile after chmod of the compiler"
    n=$(calls)
    touch "$W/cc.sh"
    runs
    [ "$(calls)" -gt "$n" ] || fail "no compile after touch of the compiler"
    ;;
  esac
  ;;
kernel-cache-no-cc)
  # A compiler that does not exist: the run still completes through
  # bytecode, after one note on stderr.
  out=$(DHPF_CC=/nonexistent DHPF_KERNEL_CACHE=$W/kc \
    "$DHPFC" run "$PROG" -p 4 --engine=native 2>&1) || fail "exit $?: $out"
  echo "$out" | grep -q 'native engine unavailable, falling back to bytecode' ||
    fail "no fallback note: $out"
  echo "$out" | grep -qx 'reference check: OK' || fail "no check: $out"
  ;;
run-hpf)
  # run compiles an .hpf source and runs the serialized result; -p 8
  # cannot reshape the fixed PR(2, 2), and the header names what ran.
  out=$("$DHPFC" run "$REGRESS/blockcyclic.hpf" -p 8) || fail "exit $?"
  echo "$out" | grep -q "^ran 'blockcyclic' on 4 procs (2x2), " ||
    fail "shape not named: $out"
  ;;
*)
  echo "unknown case '$CASE'"
  exit 2
  ;;
esac
echo "ok ($CASE)"
