#!/usr/bin/env bash
# Offline CI for the FBS power-flow repo. Fifteen legs:
#
#   1. Tier-1 verify: release build + the full default test suite.
#   2. Workspace: every crate's unit and integration suites
#      (`--workspace --no-fail-fast`, so one failure does not hide the
#      rest).
#   3. Benchmark: the repository benchmark's tiny-size test (perfbench
#      is a workspace of its own, so leg 2 does not reach it).
#   4. Divergence/NaN hardening: the convergence-status suites (monitor
#      unit tests, cross-solver collapse acceptance, batch masking, CLI
#      exit codes) run by name so a filtered tier-1 can't skip them.
#   5. Fault injection/recovery: the resilience suites (fault-plan
#      determinism, checkpoint/rollback recovery, degradation, CLI
#      exit-5/replay) run by name, plus a smoke run of the E12 bench.
#   6. Service: the robustness-service suites (deadline/breaker/
#      backpressure unit + property tests, parser-hardening fuzz, CLI
#      exit-6/7) under a hard wall-clock ceiling — a hung watchdog or
#      drain must fail the leg, not wedge CI — plus a smoke run of the
#      E13 bench.
#   7. Telemetry: the metrics/trace subsystem suites (registry,
#      histogram merge/quantile properties, exporter goldens) plus the
#      CLI golden-trace tests — a fixed-seed trace must stay
#      byte-identical and the run summary must reconcile with the
#      solver's phase report.
#   8. Tensor batch: the tensor-engine unit suite and the four-family
#      property suite (serial parity, masking, determinism, fault
#      recovery) under a wall-clock ceiling, plus an `E9_SMOKE` run of
#      the E9 bench as an end-to-end sanity pass.
#   9. Contingency: the topology-delta property suite (revertibility,
#      rebuild equivalence, warm starts, screening parity), the
#      screener unit suite, the CLI `screen` subcommand test, and an
#      `E14_SMOKE` run of the E14 bench — all under wall-clock
#      ceilings.
#  10. Fleet: the multi-device resilience suites (fleet unit tests,
#      the five-family property suite — parity under kills,
#      conservation, ladder ordering, replay, scaling — and the CLI
#      `fleet` subcommand test) under wall-clock ceilings, plus an
#      `E15_SMOKE` run of the E15 bench and a seeded chaos replay
#      through the CLI that must exit 0 with one device scripted dead.
#  11. Integrity/soak: the data-integrity suites (CRC64 transfer
#      checks, canary audits, shadow-verification sampler, the
#      first-request corruption property tests) run by name, plus an
#      `E16_SMOKE` run of the E16 chaos-soak bench and a seeded storm
#      soak through the CLI that must exit 0 (exit 8 would mean an
#      undetected corruption reached an answer).
#  12. Mesh/DG: the weakly-meshed + distributed-generation suites (the
#      mesh unit suite, the five-family property suite — radial
#      pass-through, PV set-point hold, Q-limit clamp equivalence,
#      hand-computed Thevenin parity, cross-backend agreement — and the
#      CLI meshed/DG + exit-9 tests) under wall-clock ceilings, plus an
#      `E17_SMOKE` run of the E17 bench.
#  13. Racecheck: re-runs every simt and fbs device kernel under the
#      per-cell data-race detector (simt's `racecheck` feature).
#  14. Lint: clippy over every target with warnings promoted to errors.
#  15. Results: nothing under `results/` changed. Those files are the
#      committed full-size tables; the E-bench smoke runs above write
#      theirs to `target/smoke-results/`.
#
# Everything runs with --offline — the repo has zero external registry
# dependencies (see DESIGN.md, "Dependency policy"), so a warm toolchain
# is all that's needed.

set -euo pipefail
cd "$(dirname "$0")"

results_sums() { find results -type f -print0 | sort -z | xargs -0 sha256sum; }
results_before=$(results_sums)

echo "== tier-1: cargo build --release && cargo test -q =="
cargo build --release --offline
cargo test -q --offline

echo "== workspace: every crate's suites =="
cargo test -q --offline --workspace --no-fail-fast

echo "== benchmark: perfbench tiny-size test =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== divergence/NaN hardening: status suites =="
cargo test -q --offline -p fbs --lib status::
cargo test -q --offline --test prop_divergence_status
cargo test -q --offline -p fbs-cli --test cli_commands solve_exit_codes_reflect_status

echo "== fault injection/recovery: resilience suites =="
cargo test -q --offline -p simt --lib fault::
cargo test -q --offline -p fbs --lib recovery::
cargo test -q --offline -p fbs --test prop_fault_recovery
cargo test -q --offline -p fbs-cli --test cli_commands -- device_loss byte_identical
E12_SMOKE=1 cargo run -q --offline --release -p fbs-bench --bin exp_e12_faults > /dev/null

echo "== service: deadlines, breaker, backpressure, parser hardening =="
timeout 300 cargo test -q --offline -p fbs --lib service::
timeout 300 cargo test -q --offline -p fbs --test prop_service
timeout 300 cargo test -q --offline -p powergrid --test prop_parse_hardening
timeout 300 cargo test -q --offline -p fbs-cli --test cli_commands -- deadline_and_invalid_config service_flags
E13_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e13_service > /dev/null

echo "== telemetry: registry/exporter suites + CLI golden traces =="
cargo test -q --offline -p telemetry
cargo test -q --offline -p fbs --lib obs::
cargo test -q --offline -p simt --lib span_export::
cargo test -q --offline -p fbs-cli --test telemetry_golden

echo "== tensor batch: engine suites + E9 smoke =="
timeout 300 cargo test -q --offline -p fbs --lib tensor_batch::
timeout 300 cargo test -q --offline --test prop_tensor_batch
E9_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e9_batch > /dev/null

echo "== contingency: delta-topology suites + E14 smoke =="
timeout 300 cargo test -q --offline -p fbs --lib contingency::
timeout 300 cargo test -q --offline --test prop_delta_topology
timeout 300 cargo test -q --offline -p fbs-cli --test cli_commands screen_runs_every_n_minus_1_outage
E14_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e14_contingency > /dev/null

echo "== fleet: multi-device resilience suites + E15 smoke + chaos replay =="
timeout 300 cargo test -q --offline -p fbs --lib fleet::
timeout 600 cargo test -q --offline -p fbs --test prop_fleet
timeout 300 cargo test -q --offline -p fbs-cli --test cli_commands fleet_replays_a_chaotic_stream
E15_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e15_fleet > /dev/null
cargo run -q --offline --release -p fbs-cli feeders --name ieee37 --out target/ci_fleet.grid 2> /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli fleet target/ci_fleet.grid \
  --devices 4 --requests 32 --gap 120 --kill-device 1 --batch-every 8 \
  --scenarios 96 --shard-min 16 --seed 7 > /dev/null

echo "== integrity/soak: CRC + canary + shadow-verification suites + E16 smoke =="
timeout 300 cargo test -q --offline -p simt --lib crc::
timeout 300 cargo test -q --offline -p fbs --lib integrity::
timeout 600 cargo test -q --offline -p fbs --test prop_integrity
timeout 300 cargo test -q --offline -p fbs-cli --test cli_commands soak_runs_a_storm
E16_SMOKE=1 timeout 600 cargo run -q --offline --release -p fbs-bench --bin exp_e16_soak > /dev/null 2> /dev/null
cargo run -q --offline --release -p fbs-cli feeders --name ieee37 --out target/ci_soak.grid 2> /dev/null
timeout 300 cargo run -q --offline --release -p fbs-cli soak target/ci_soak.grid \
  --requests 24 --tol 1e-12 --seed 7 > /dev/null 2> /dev/null

echo "== mesh/DG: weakly-meshed + distributed-generation suites + E17 smoke =="
timeout 300 cargo test -q --offline -p fbs --lib mesh::
timeout 600 cargo test -q --offline -p fbs --test prop_mesh
timeout 300 cargo test -q --offline -p fbs-cli --test cli_commands -- meshed_dg_feeder outer_divergence solve3_accepts_dg
E17_SMOKE=1 timeout 300 cargo run -q --offline --release -p fbs-bench --bin exp_e17_mesh > /dev/null

echo "== racecheck: device kernels under the simt race detector =="
cargo test -q --offline --features racecheck -p simt -p fbs

echo "== lint: cargo clippy -D warnings =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== results: committed tables untouched =="
if [ "$(results_sums)" != "$results_before" ]; then
  diff <(echo "$results_before") <(results_sums) || true
  echo "ci.sh: results/ changed during CI" >&2
  exit 1
fi

echo "== ci.sh: all green =="
