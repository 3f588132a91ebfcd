#!/usr/bin/env bash
# Regenerates every table and figure of the paper's evaluation, plus the
# design-choice ablations. Outputs land in results/.
#
# The full suite takes about fourteen minutes on one core
# (fig12_13_table1 is over half of it); one experiment can be run directly:
#   cargo run --release -p crdb-bench --bin exp -- fig5
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -p crdb-bench --bin exp
mkdir -p results

for name in $(target/release/exp --list); do
    echo "== $name =="
    target/release/exp "$name" | tee "results/$name.txt"
done
echo "All experiments complete; outputs in results/."
