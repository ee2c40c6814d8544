#!/bin/sh
# fma_check.sh — fail on floating-point multiply-adds the compiler
# fused on its own.
#
# The Go spec lets a compiler contract x*y + z into one fused
# multiply-add, which rounds once where the separate multiply and add
# round twice. amd64 never contracts; the arm64, ppc64le, s390x and
# riscv64 backends do, so the same request would produce different
# study bytes there. Writing the product as float64(x*y) forces its
# rounding and forbids the fusion.
#
# For each of those architectures this cross-compiles the given
# packages (default ./internal/pdn) with -gcflags=-S and lists every
# fused instruction with its source line. A fused op is allowed only on
# a line that calls math.FMA, which rounds once by definition on every
# architecture. Needs no emulator: nothing is run.
#
#   scripts/fma_check.sh [package ...]
set -eu

GO=${GO:-go}
[ $# -gt 0 ] || set -- ./internal/pdn
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

status=0
for arch in arm64 ppc64le s390x riscv64; do
    GOARCH=$arch "$GO" build -gcflags=-S "$@" >"$WORK/$arch.s" 2>&1 || {
        cat "$WORK/$arch.s" >&2
        echo "fma-check: $arch build failed" >&2
        exit 1
    }
    # An empty listing would pass vacuously.
    if ! grep -q 'STEXT' "$WORK/$arch.s"; then
        echo "fma-check: no $arch assembly listing for $*" >&2
        exit 1
    fi
    # "0x0108 00264 (/path/file.go:281)	FMADDD	F2, F1, F3, F0"
    # -> "/path/file.go 281 FMADDD"
    sed -n -E 's/^.*\(([^()]+\.go):([0-9]+)\)[[:space:]]+([A-Z0-9.]+).*$/\1 \2 \3/p' "$WORK/$arch.s" |
        grep -E ' (FN?M(ADD|SUB)[DS]?|WFN?M[AS][DS]B|VFN?M[A-Z]*)$' |
        sort -u >"$WORK/$arch.fused" || true
    while read -r file line op; do
        if sed -n "${line}p" "$file" | grep -q 'math\.FMA('; then
            continue
        fi
        echo "fma-check: $arch $op at $file:$line: $(sed -n "${line}p" "$file" | sed 's/^[[:space:]]*//')" >&2
        status=1
    done <"$WORK/$arch.fused"
done
if [ $status -ne 0 ]; then
    echo "fma-check: write each product that feeds an add as float64(x*y)" >&2
    exit 1
fi
echo "fma-check: no implicit fused multiply-adds in $* (arm64 ppc64le s390x riscv64)"
