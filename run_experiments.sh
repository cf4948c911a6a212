#!/bin/bash
# Regenerates every table/figure; outputs under results/.
set -e
cd "$(dirname "$0")"
mkdir -p results
R=./target/release
echo "=== fig1 ==="    && ASYNCGT_FIG1_MS=${ASYNCGT_FIG1_MS:-200} $R/fig1    | tee results/fig1.txt
echo "=== table1 ==="  && ASYNCGT_SCALES=${ASYNCGT_SCALES:-14,16,18} $R/table1  | tee results/table1.txt
echo "=== table2 ==="  && ASYNCGT_SCALES=${ASYNCGT_SCALES:-14,16,18} $R/table2  | tee results/table2.txt
echo "=== table3 ==="  && ASYNCGT_SCALES=${ASYNCGT_SCALES:-14,16,18} $R/table3  | tee results/table3.txt
echo "=== table4 ==="  && $R/table4  | tee results/table4.txt
echo "=== table5 ==="  && $R/table5  | tee results/table5.txt
echo "=== ablation ===" && $R/ablation | tee results/ablation.txt
echo "=== bench_vq ===" && $R/bench_vq results/BENCH_vq.json
echo "=== bench_engine ===" && $R/bench_engine results/BENCH_engine.json
echo ALL DONE
