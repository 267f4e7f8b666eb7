#!/bin/sh
# Golden container digests: build five containers from fixed `pti gen`
# inputs and check their SHA-256 against test/golden/containers.sha256.
# Any byte that changes in a persisted container fails the check, so a
# construction change that claims to keep the format must pass it
# unchanged.
#
#   scripts/golden_build.sh           check the digests
#   scripts/golden_build.sh --update  rewrite the digest file (only for
#                                     a deliberate format change)
set -eu

PTI=_build/default/bin/pti.exe
[ -x "$PTI" ] || { echo "golden: build bin/pti.exe first (dune build bin/pti.exe)" >&2; exit 1; }

SUMS=$(pwd)/test/golden/containers.sha256
DIR=$(mktemp -d "${TMPDIR:-/tmp}/pti-golden.XXXXXX")
trap 'rm -rf "$DIR"' EXIT INT TERM

"$PTI" gen --total 20000 --seed 7 -o "$DIR/general.txt"
"$PTI" gen --docs --seed 11 -o "$DIR/docs.txt"

"$PTI" build -i "$DIR/general.txt" -o "$DIR/packed-general.pti"
"$PTI" build -i "$DIR/docs.txt" --docs -o "$DIR/packed-listing-max.pti"
"$PTI" build -i "$DIR/docs.txt" --docs --relevance or -o "$DIR/packed-listing-or.pti"
"$PTI" build -i "$DIR/general.txt" --backend succinct -o "$DIR/succinct-general.pti"
"$PTI" build -i "$DIR/docs.txt" --docs --backend succinct -o "$DIR/succinct-listing.pti"

cd "$DIR"
if [ "${1:-}" = "--update" ]; then
    sha256sum packed-general.pti packed-listing-max.pti packed-listing-or.pti \
        succinct-general.pti succinct-listing.pti > "$SUMS"
    echo "golden: wrote $SUMS"
else
    sha256sum -c "$SUMS"
fi
