#!/bin/sh
# The same workflow as the Python demos, driven entirely from the shell.
# Every step leaves a manifest.json recording inputs, outputs, settings,
# and timings, so a run can be audited or reproduced later.
set -e

work=$(mktemp -d)
echo "working in $work"

tractsparse synth crossing2 --seed 0 --out "$work/data"

tractsparse distances --in "$work/data/tract.slb" --measure mcp \
    --out "$work/d.dm" --csv "$work/d.csv"

tractsparse cluster --in "$work/data/tract.slb" --dist "$work/d.dm" \
    --method gksc --m 4 --save-kernel --out "$work/fit"

tractsparse metrics --pred "$work/fit/labels.txt" \
    --truth "$work/data/labels.txt" --dist "$work/d.dm"

tractsparse atlas-build --in "$work/data/tract.slb" --m 2 \
    --out "$work/ref.atlas"

tractsparse segment --atlas "$work/ref.atlas" \
    --in "$work/data/tract.slb" --out "$work/seg"

echo "artifacts:"
find "$work" -type f | sort
