#!/usr/bin/env bash
# Full offline quality gate: release build, test suite, and clippy with
# warnings denied (including the per-crate `clippy::unwrap_used` gates).
# Run from anywhere; the script cd's to the repo root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --offline --workspace

echo "==> cargo test (offline)"
cargo test -q --offline --workspace

echo "==> cargo clippy -D warnings (offline)"
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "==> unwrap gate (hash crate production code must stay unwrap-free)"
cargo clippy -q --offline -p mosaic-hash -- -D warnings -D clippy::unwrap_used

echo "==> obs access-path microbench (noop handle must stay ~free)"
cargo bench -q --offline -p mosaic-bench --bench obs

echo "==> obs golden determinism gate (fixed-seed GUPS JSONL, two runs)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
for run in 1 2; do
  ./target/release/fig6 gups --scale 0 --entries 64 --no-kernel \
    --obs-out "$OBS_TMP/run$run.jsonl" --obs-interval 5000 \
    > "$OBS_TMP/stdout$run.txt" 2>/dev/null
done
cmp "$OBS_TMP/run1.jsonl" "$OBS_TMP/run2.jsonl"
cmp "$OBS_TMP/stdout1.txt" "$OBS_TMP/stdout2.txt"
./target/release/obs_report "$OBS_TMP/run1.jsonl" > "$OBS_TMP/report.txt"
grep -q "interval curve" "$OBS_TMP/report.txt"

echo "==> parallel determinism gate (fig6 --jobs 1 vs --jobs 4, stdout + JSONL)"
for jobs in 1 4; do
  ./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs "$jobs" \
    --obs-out "$OBS_TMP/par$jobs.jsonl" --obs-interval 5000 \
    > "$OBS_TMP/parout$jobs.txt" 2>/dev/null
done
diff "$OBS_TMP/parout1.txt" "$OBS_TMP/parout4.txt"
# The parallel export is self-deterministic: a second --jobs 4 run must
# reproduce the first byte-for-byte.
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs 4 \
  --obs-out "$OBS_TMP/par4b.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/parout4b.txt" 2>/dev/null
cmp "$OBS_TMP/par4.jsonl" "$OBS_TMP/par4b.jsonl"
cmp "$OBS_TMP/parout4.txt" "$OBS_TMP/parout4b.txt"
./target/release/obs_report "$OBS_TMP/par4.jsonl" > "$OBS_TMP/parreport.txt"
grep -q "interval curve" "$OBS_TMP/parreport.txt"

echo "==> batched-pipeline gate (fig6: --batch 1 scalar loop vs batched, --jobs 8)"
# The batched engine's contract: stdout and the JSONL export are
# byte-identical to the scalar per-access loop and at every --jobs value.
# par1.* above were produced with the default batch at --jobs 1.
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --batch 1 \
  --obs-out "$OBS_TMP/scalar.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/scalarout.txt" 2>/dev/null
cmp "$OBS_TMP/scalarout.txt" "$OBS_TMP/parout1.txt"
cmp "$OBS_TMP/scalar.jsonl" "$OBS_TMP/par1.jsonl"
# Across jobs values the contract is stdout byte-identity (the JSONL
# stream layout is engine-specific; its self-determinism is gated above).
./target/release/fig6 gups --scale 0 --entries 64 --no-kernel --jobs 8 \
  --obs-out "$OBS_TMP/par8.jsonl" --obs-interval 5000 \
  > "$OBS_TMP/parout8.txt" 2>/dev/null
cmp "$OBS_TMP/parout8.txt" "$OBS_TMP/parout1.txt"

echo "==> batched-pipeline gate (table4: --batch 1 vs batched across --jobs 1/4/8)"
./target/release/table4 --buckets 16 --batch 1 --jobs 1 \
  > "$OBS_TMP/t4scalar.txt" 2>/dev/null
for jobs in 1 4 8; do
  ./target/release/table4 --buckets 16 --jobs "$jobs" \
    > "$OBS_TMP/t4j$jobs.txt" 2>/dev/null
  cmp "$OBS_TMP/t4j$jobs.txt" "$OBS_TMP/t4scalar.txt"
done

echo "==> table4 JSONL determinism gate (--jobs 1 vs --jobs 4, interval snapshots)"
# Every grid cell exports into its own registry, merged in grid order,
# so the stream does not depend on the thread count.
for jobs in 1 4; do
  ./target/release/table4 --buckets 16 --jobs "$jobs" \
    --obs-out "$OBS_TMP/t4obs$jobs.jsonl" --obs-interval 50000 \
    > /dev/null 2>&1
done
cmp "$OBS_TMP/t4obs1.jsonl" "$OBS_TMP/t4obs4.jsonl"

echo "==> table4 golden gate (batched default must reproduce results_table4.txt)"
./target/release/table4 --jobs 4 > "$OBS_TMP/t4gold.txt" 2>/dev/null
cmp "$OBS_TMP/t4gold.txt" results_table4.txt

echo "==> tenant determinism gate (tenants --jobs 1 vs --jobs 4, clean + faults)"
TEN_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,110)
for jobs in 1 4; do
  ./target/release/tenants "${TEN_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/ten$jobs.txt" 2>/dev/null
  ./target/release/tenants "${TEN_FLAGS[@]}" --fault-ppm 200 --jobs "$jobs" \
    > "$OBS_TMP/tenf$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/ten1.txt" "$OBS_TMP/ten4.txt"
cmp "$OBS_TMP/tenf1.txt" "$OBS_TMP/tenf4.txt"
grep -q "per-tenant fault ppm" "$OBS_TMP/ten1.txt"

echo "==> tenants golden gate (default sweep must reproduce results_tenants.txt)"
./target/release/tenants --jobs 4 > "$OBS_TMP/tengold.txt" 2>/dev/null
cmp "$OBS_TMP/tengold.txt" results_tenants.txt

echo "==> concurrent-determinism gate (--concurrent-alloc must not change stdout)"
# The lock-free mirror is observational: the golden sweep with the
# shadow on (cross-checked at every verify) must stay byte-identical,
# and so must a jobs-1-vs-8 pair with sharing and the shadow both on.
./target/release/tenants --jobs 4 --concurrent-alloc > "$OBS_TMP/tenshadow.txt" 2>/dev/null
cmp "$OBS_TMP/tenshadow.txt" results_tenants.txt
CON_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,110
           --shared-traces --concurrent-alloc)
for jobs in 1 8; do
  ./target/release/tenants "${CON_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/con$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/con1.txt" "$OBS_TMP/con8.txt"

echo "==> seeded-interleaving stress gate (concurrent table vs serial oracle)"
cargo test -q --offline -p mosaic-iceberg --test concurrent_oracle

echo "==> hostile-tenant determinism gate (thrasher + faults, --jobs 1 vs 8)"
ISO_FLAGS=(--tenants 16 --buckets 16 --steps 60000 --churn 10000 --loads 90,105
           --hostile thrasher --quota-frac 125 --priority-spread 2 --fault-ppm 200)
for jobs in 1 8; do
  ./target/release/tenants "${ISO_FLAGS[@]}" --jobs "$jobs" \
    > "$OBS_TMP/iso$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/iso1.txt" "$OBS_TMP/iso8.txt"
grep -q "Victim inflation" "$OBS_TMP/iso1.txt"

echo "==> isolation golden gate (must reproduce results_isolation.txt)"
./target/release/tenants --tenants 16 --buckets 64 --steps 800000 --churn 20000 \
  --loads 105,120 --hostile thrasher --quota-frac 125 --priority-spread 2 \
  --jobs 4 > "$OBS_TMP/isogold.txt" 2>/dev/null
cmp "$OBS_TMP/isogold.txt" results_isolation.txt

echo "==> attribution determinism gate (attrib --jobs 1 vs 8, fault-injected JSONL)"
for jobs in 1 8; do
  ./target/release/attrib --fault-ppm 20000 --jobs "$jobs" \
    --obs-out "$OBS_TMP/at$jobs.jsonl" --obs-interval 20000 \
    > "$OBS_TMP/atout$jobs.txt" 2>/dev/null
done
cmp "$OBS_TMP/at1.jsonl" "$OBS_TMP/at8.jsonl"
cmp "$OBS_TMP/atout1.txt" "$OBS_TMP/atout8.txt"
grep -q '"t":"attrib"' "$OBS_TMP/at1.jsonl"
./target/release/obs_report "$OBS_TMP/at1.jsonl" > "$OBS_TMP/atreport.txt"
grep -q "conflict removed by" "$OBS_TMP/atreport.txt"
grep -q "per-tenant blame" "$OBS_TMP/atreport.txt"

echo "==> attribution golden gate (must reproduce results_attrib.txt)"
./target/release/attrib --jobs 4 > "$OBS_TMP/atgold.txt" 2>/dev/null
cmp "$OBS_TMP/atgold.txt" results_attrib.txt

echo "==> exact-LRU golden gates (table3, ablation, walkcost must reproduce their results_*.txt)"
# Every manager, quota table and walk cache behind these reclaims through
# mem::lru::LruIndex, so they pin its eviction order end to end.
./target/release/table3 --buckets 64 --runs 3 --jobs 4 > "$OBS_TMP/t3gold.txt" 2>/dev/null
cmp "$OBS_TMP/t3gold.txt" results_table3.txt
./target/release/ablation --buckets 48 --jobs 4 > "$OBS_TMP/abgold.txt" 2>/dev/null
cmp "$OBS_TMP/abgold.txt" results_ablation.txt
./target/release/walkcost > "$OBS_TMP/wcgold.txt" 2>/dev/null
cmp "$OBS_TMP/wcgold.txt" results_walkcost.txt

echo "==> bench-delta (warn-only) vs BENCH_*.json baselines committed at HEAD"
for s in obs parallel tenants isolation step iceberg; do
  if git show "HEAD:BENCH_${s}.json" > "$OBS_TMP/BENCH_${s}.base.json" 2>/dev/null; then
    scripts/bench_delta.sh "$OBS_TMP/BENCH_${s}.base.json" "BENCH_${s}.json" || true
  fi
done

echo "All checks passed."
