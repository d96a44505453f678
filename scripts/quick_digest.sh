#!/usr/bin/env bash
# Byte-identity gate for the -quick experiment suite: runs
# `cmd/experiments -quick -seed 7`, canonicalizes its JSONL records with
# `popsimd -canon` (key-sorted, wall time zeroed) and compares the sha256
# with the pinned digest below. Any change to a trajectory — an engine's
# use of the random stream, a sampler, a protocol rule, a record field —
# moves the digest; engine optimizations that claim byte-identical runs
# must leave it alone.
#
# Re-pin only for a change that is meant to alter trajectories or
# records: run this script, check that the new digest comes from the
# intended change (e.g. diff the canonical records against the old ones),
# and replace PINNED with the "got" value it prints.
set -euo pipefail

PINNED=07dcbf9f0cad9303ce82da1d5615455630ea7405668bb880ab22d17b322894fe

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go run ./cmd/experiments -quick -seed 7 -out "" -jsonl "$workdir/quick.jsonl" >/dev/null
go run ./cmd/popsimd -canon "$workdir/quick.jsonl" >"$workdir/quick.canon"
got=$(sha256sum "$workdir/quick.canon" | cut -d' ' -f1)
if [[ "$got" != "$PINNED" ]]; then
  echo "quick digest mismatch: got $got, pinned $PINNED" >&2
  exit 1
fi
echo "quick digest $got matches the pin"
