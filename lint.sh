#!/bin/sh
# Repo lint: fail on uninitialized Bytes.create outside the allowlist.
#
# Bytes.create returns UNINITIALIZED memory; everywhere the repo needs
# zeroed bytes it must use Bytes.make n '\000' (CLAUDE.md gotcha — a
# Guest_mem or loader built on Bytes.create would leak heap garbage into
# the "guest"). The files below are audited: every Bytes.create there is
# immediately and fully overwritten (codec output buffers, synthetic
# image section builders, a read_file that really_input-fills it).
# Add a file here only after checking the same holds.

set -eu
cd "$(dirname "$0")"

allowlist='
lib/compress/bwt.ml
lib/compress/codec.ml
lib/compress/mtf.ml
lib/compress/xz.ml
lib/elf/note.ml
lib/elf/parser.ml
lib/elf/relocation.ml
lib/guest/boot_params.ml
lib/kernel/bzimage.ml
lib/kernel/image.ml
lib/kernel/initrd.ml
lib/kernel/rootfs.ml
lib/monitor/snapshot.ml
bin/relocs.ml
'

status=0

# An allowlist entry is an audit of the file as it was: once the file
# no longer contains the pattern, the entry must go, or a later use
# would inherit an audit nobody made.
stale() {
  for f in $2; do
    if ! grep -q "$1" "$f" 2>/dev/null; then
      echo "lint: $f is allowlisted for $1 but does not use it; drop it from lint.sh" >&2
      status=1
    fi
  done
}

for f in $(find lib bin bench examples -name '*.ml' 2>/dev/null | sort); do
  case "$allowlist" in
  *"
$f
"*) continue ;;
  esac
  if grep -n 'Bytes\.create' "$f"; then
    echo "lint: $f uses Bytes.create (uninitialized) and is not allowlisted" >&2
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "lint: use Bytes.make n '\\000', or audit the use and extend lint.sh" >&2
fi

# Catch-all exception handlers in lib/ mask the typed failure taxonomy:
# `try ... with _ ->` absorbs Guest_panic and Corrupt alike, and the
# fault campaign's soundness check (zero silent successes) only means
# something if no library code swallows exceptions blind. Match the
# specific exception, or classify through Imk_fault.Failure.classify
# (which re-raises what it cannot place). No file is currently
# allowlisted; add one only with a comment proving the handler cannot
# hide a typed boot failure.
catchall_allowlist='
'

for f in $(find lib -name '*.ml' 2>/dev/null | sort); do
  case "$catchall_allowlist" in
  *"
$f
"*) continue ;;
  esac
  if grep -n 'with[[:space:]]*_[[:space:]]*->' "$f"; then
    echo "lint: $f has a catch-all exception handler; match specific exceptions" >&2
    status=1
  fi
done

# Telemetry must flow as raw floats from Experiments.output to the
# BENCH_<exp>.json writer. Re-parsing numbers out of rendered table
# cells is the bug class behind the old value_column heuristic (any
# header ending in "ms" — "atoms", "programs" — got read as
# milliseconds), so float-from-string conversion is banned in
# lib/harness/ outright: parsing belongs in Imk_util.Minjson, rendering
# in Imk_util.Table, and the harness passes structured summaries
# between them.
for f in $(find lib/harness -name '*.ml' 2>/dev/null | sort); do
  if grep -n 'float_of_string' "$f"; then
    echo "lint: $f parses floats from strings; feed telemetry raw floats instead" >&2
    status=1
  fi
done

# Every table row and its telemetry row come from one primitive: the
# rows of an Experiments.sheet (CLAUDE.md). A Table.create anywhere else
# in lib/ is a hand-built table whose rendered rows and BENCH_<exp>.json
# rows can drift apart, so the one call allowed is the one that builds a
# sheet.
if grep -rn 'Table\.create' lib --include='*.ml' \
  | grep -v '^lib/harness/experiments\.ml:[0-9]*:let sheet headers = '; then
  echo "lint: Table.create outside Experiments.sheet; add rows to a sheet with row/add" >&2
  status=1
fi

# Unchecked memory access is allowed only under the audited
# unsafe-after-validation pattern (DESIGN.md §4): a bounds proof
# established up front — Kraft-validated decode tables whose every entry
# was range-checked at build time, a refill loop whose guard is the
# bounds check, an LZ77 copy whose window arithmetic was validated
# before the byte loop. Each allowlisted file carries a comment stating
# the proof next to each unsafe access; extend the list only with both
# the audit and the comment. Everything else goes through the checked
# accessors (Guest_mem, Byteio) — one stray unsafe_set corrupts guest
# memory silently instead of raising Fault/Corrupt.
unsafe_allowlist='
lib/compress/bitio.ml
lib/compress/gzip.ml
lib/compress/huffman.ml
lib/compress/lz4.ml
lib/compress/lz77.ml
lib/compress/lzo.ml
lib/util/crc.ml
'

for f in $(find lib bin bench examples -name '*.ml' 2>/dev/null | sort); do
  case "$unsafe_allowlist" in
  *"
$f
"*) continue ;;
  esac
  if grep -n '\(Bytes\|Array\)\.unsafe_\(get\|set\)' "$f"; then
    echo "lint: $f uses unchecked access; use checked accessors, or audit the use and extend lint.sh" >&2
    status=1
  fi
done

# Polymorphic compare in the hot sorts of the randomization and ELF
# layers costs a C call per comparison and (worse) silently "works" on
# any type, hiding a key change. The layout/relocation sorts run on
# every boot; they must spell out a monomorphic comparator
# (Int.compare / String.compare on each field) instead of passing the
# stdlib's `compare` to sort.
for f in $(find lib/randomize lib/elf -name '*.ml' 2>/dev/null | sort); do
  if grep -n 'sort\(_uniq\)\?[[:space:]]\+compare' "$f"; then
    echo "lint: $f sorts with polymorphic compare; use a monomorphic comparator (Int.compare per field)" >&2
    status=1
  fi
done

stale 'Bytes\.create' "$allowlist"
stale '\(Bytes\|Array\)\.unsafe_\(get\|set\)' "$unsafe_allowlist"

exit "$status"
