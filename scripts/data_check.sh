#!/usr/bin/env bash
# Full-scale byte identity: regenerate every experiment's report at
# full scale, seed 1, into a temporary directory and diff it against
# the CSVs committed under docs/data. A committed CSV that changes or
# is no longer produced fails the check; an experiment with no
# committed CSV is reported and skipped. Run via `make data-check`;
# `make data` regenerates docs/data after an intentional change.
set -euo pipefail

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== regenerating every experiment at full scale"
go run ./cmd/rrsim -experiment all -scale full -format summary -o "$TMP" >/dev/null

for got in "$TMP"/*.csv; do
	name="$(basename "$got")"
	if [ ! -e "docs/data/$name" ]; then
		echo "== skipping $name: no committed CSV under docs/data"
		rm "$got"
	fi
done

echo "== diffing against docs/data"
diff -r docs/data "$TMP"
echo "== docs/data is byte-identical ($(ls docs/data | wc -l | tr -d ' ') CSVs)"
