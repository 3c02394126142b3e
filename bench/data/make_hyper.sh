#!/bin/sh
# Remake the frozen inputs of the `hyper` workload, from the root of a
# checkout: sh bench/data/make_hyper.sh
# They are committed so that changes to kernel_basis (which gen_complex
# draws its differentials through) cannot change the workload.
set -e
for s in 2 3 4 6; do
    PYTHONPATH=src python3 -m fihom.cli gen --kind complex --seed $s --ring Z \
        --trunc 6 -o bench/data/hyper/complex-s$s.fic
done
