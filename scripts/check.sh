#!/usr/bin/env bash
# Tiered repo-wide hygiene gate. Run from anywhere; operates on the
# workspace root. Shared by local runs and CI (.github/workflows/ci.yml):
#
#   check.sh quick   fast lane — fmt, clippy -D warnings, workspace tests
#                    (the whole-tree audit among them: no finding, today's
#                    no_panic roots and contracts, no waiver beyond today's),
#                    root integration tests and the set-up eigensolve at 1, 2
#                    and 4 pool threads (one value of each of the four
#                    digests), the digests once
#                    more on the 256-bit lanes and on the scalar backend
#                    (each equal to auto's)
#   check.sh gates   heavy gates — frozen-benchmark build + smoke first,
#                    rustdoc without a warning, then lines per crate under
#                    a ceiling (33,094), a
#                    grep that keeps scf_initial_state / MaxwellState /
#                    export_state, the complex projector kernels, the packed
#                    GEMM, the complex reference copies, the real Jacobi,
#                    the fallible comm
#                    calls, the message faults, the erf table, the scalar
#                    loops' oracles, the ground-state stack, the checkpoint
#                    crate, the serve retry path, the metrics registry,
#                    comm's modeled send and collectives, the kernels'
#                    scalar twins, the blocked complex GEMM, the lockstep
#                    line groups and three pool verbs from coming back,
#                    eigensolver counts at the benchmark's shapes (one
#                    cold solve, and every domain of a set-up), racecheck,
#                    comm failures, NaN recovery and restart equivalence,
#                    model check, serve_load losing no job, Figs. 2-3 at
#                    their documented sweeps, Table I nowait
#                    ablation, Table II modeled rows, the lane entry points
#                    calling nothing out of line (in the SIMD tests and in
#                    the root pipeline test's workload bodies), ...
#   check.sh all     quick + gates (default)
set -euo pipefail
cd "$(dirname "$0")/.."

# Every mktemp dir/file registers here; the EXIT trap removes them even
# when a gate fails mid-way (they used to leak on error).
SCRATCH=()
# Set by the benchmark smoke: the committed benchmark/Cargo.lock, which
# `cargo --offline` rewrites whenever the dependency graph has shrunk.
LOCK_SAVED=""
cleanup() {
  if [ -n "$LOCK_SAVED" ]; then
    cp -- "$LOCK_SAVED" benchmark/Cargo.lock
  fi
  if [ "${#SCRATCH[@]}" -gt 0 ]; then
    rm -rf -- "${SCRATCH[@]}"
  fi
}
trap cleanup EXIT

# Wall-clock cap on every test run: a hang is a failure in minutes, not a
# silent CI timeout. Test binaries are built beforehand (uncapped), so the
# cap times runs, not compiles.
capped() {
  timeout 300 "$@"
}

# A filtered `cargo test` exits 0 when the filter matches nothing
# ("running 0 tests"), so a renamed module silently un-gates itself. Run
# the command and fail unless its `running N tests` lines sum to > 0.
ran_some() {
  local log ran
  log=$(mktemp /tmp/dcmesh_filtered_XXXXXX.log)
  SCRATCH+=("$log")
  capped "$@" 2>&1 | tee "$log"
  ran=$(awk '/^running [0-9]+ tests?$/ { n += $2 } END { print n + 0 }' "$log")
  if [ "$ran" -eq 0 ]; then
    echo "no test ran: the filter of '$*' matches nothing" >&2
    exit 1
  fi
}

tier_quick() {
  echo "== cargo fmt --check =="
  cargo fmt --all -- --check

  echo "== cargo clippy --workspace -- -D warnings =="
  cargo clippy --workspace --all-targets -- -D warnings

  echo "== cargo test --workspace -q =="
  cargo test --workspace --no-run -q
  capped cargo test --workspace -q

  echo "== root integration tests and the set-up eigensolve at DCMESH_THREADS=1,2,4: one physics, one sp, one eig, one snapshot digest =="
  # The four digest lines of a log, one string.
  digests() {
    # -o: under -q the lines share their row with the progress dots.
    grep -o -e 'physics-digest [0-9a-f]*' -e 'sp-digest [0-9a-f]*' -e 'eig-digest [0-9a-f]*' \
      -e 'snapshot-digest [0-9a-f]*' "$1" | sort -u | tr '\n' ' '
  }
  # The pool's size is fixed per process, so each thread count is a run of
  # its own; tests/dcmesh_pipeline.rs prints the digests they must share
  # (f64 pipeline + engines, a single-precision engine, and every piece of
  # evolving state of a 4-domain run with feedback), and
  # crates/core/tests/eigensolver_setup.rs the bits of one `lowest_states`.
  local want="" threads log digest
  local eig_test=(cargo test -q -p dcmesh-core --test eigensolver_setup results_do_not_depend -- --nocapture)
  cargo test -q -p dcmesh-core --test eigensolver_setup --no-run
  for threads in 1 2 4; do
    log=$(mktemp /tmp/dcmesh_threads_XXXXXX.log)
    SCRATCH+=("$log")
    {
      DCMESH_THREADS=$threads capped cargo test -q --tests -- --nocapture \
        && DCMESH_THREADS=$threads capped "${eig_test[@]}"
    } > "$log" 2>&1 || {
      cat "$log" >&2
      echo "root integration tests or the set-up eigensolve failed (or hung) at DCMESH_THREADS=$threads" >&2
      exit 1
    }
    digest=$(digests "$log")
    if [ "$(echo "$digest" | wc -w)" -ne 8 ]; then
      echo "want one physics-, one sp-, one eig- and one snapshot-digest line at DCMESH_THREADS=$threads, got '$digest'" >&2
      exit 1
    fi
    echo "DCMESH_THREADS=$threads: $digest"
    if [ -z "$want" ]; then
      want=$digest
      echo "DCMESH_SIMD=auto resolved to: $(grep -o 'simd-backend [A-Za-z0-9]*' "$log" | sort -u | cut -d' ' -f2)"
    elif [ "$digest" != "$want" ]; then
      echo "a digest depends on the thread count: '$want' at 1, '$digest' at $threads" >&2
      exit 1
    fi
  done
  # The 256-bit lanes, once: every lane operation is lane-local and no kernel
  # reduces across lanes, so they give the bits of whatever auto resolved to
  # (the 512-bit lanes where the CPU has AVX-512F).
  log=$(mktemp /tmp/dcmesh_threads_XXXXXX.log)
  SCRATCH+=("$log")
  {
    DCMESH_SIMD=avx2 capped cargo test -q --test dcmesh_pipeline prints_physics_digest -- --nocapture \
      && DCMESH_SIMD=avx2 capped "${eig_test[@]}"
  } > "$log" 2>&1 || {
    cat "$log" >&2
    exit 1
  }
  digest=$(digests "$log")
  echo "DCMESH_SIMD=avx2: $digest"
  if [ "$digest" != "$want" ]; then
    echo "the 256-bit lanes' digests '$digest' are not auto's '$want'" >&2
    exit 1
  fi
  # The scalar backend, once: the same kernel bodies on portable lanes, one
  # complex value at a time (`mul_add` where the vectors fuse), so auto's bits
  # on any CPU.
  log=$(mktemp /tmp/dcmesh_threads_XXXXXX.log)
  SCRATCH+=("$log")
  {
    DCMESH_SIMD=scalar capped cargo test -q --test dcmesh_pipeline prints_physics_digest -- --nocapture \
      && DCMESH_SIMD=scalar capped "${eig_test[@]}"
  } > "$log" 2>&1 || {
    cat "$log" >&2
    exit 1
  }
  digest=$(digests "$log")
  echo "DCMESH_SIMD=scalar: $digest"
  if [ "$digest" != "$want" ]; then
    echo "the scalar backend's digests '$digest' are not auto's '$want'" >&2
    exit 1
  fi
}

tier_gates() {
  echo "== frozen benchmark still builds and smokes (BENCHMARK.json, benchmark/) =="
  # First: no workspace test compiles benchmark/src/probes.rs, so a deletion
  # that breaks it should fail here in minutes, not after the racecheck and
  # failure suites. The build may rewrite benchmark/Cargo.lock (BENCHMARK.json's
  # command has no --locked); cleanup puts it back.
  LOCK_SAVED=$(mktemp /tmp/dcmesh_benchmark_lock_XXXXXX)
  SCRATCH+=("$LOCK_SAVED")
  cp benchmark/Cargo.lock "$LOCK_SAVED"
  cargo build --release --offline --manifest-path benchmark/Cargo.toml
  capped cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke > /dev/null

  echo "== rustdoc without a warning (broken and private links, stray HTML) =="
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q

  echo "== .rs lines per crate (ROADMAP aim 2: the trend cannot reverse unnoticed) =="
  local dir total
  for dir in crates/* vendor/* src tests examples; do
    printf '%7d  %s\n' "$(find "$dir" -name '*.rs' -print0 | xargs -0 cat | wc -l)" "$dir"
  done
  total=$(find crates vendor src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
  printf '%7d  total\n' "$total"
  # The ceiling is the tree's total as the last change that moved it left
  # it: a change lowers it to its new total, and one that must raise it says
  # why in EXPERIMENTS.md (each section's **Lines** paragraph holds the
  # history).
  local ceiling=33094
  if [ "$total" -gt "$ceiling" ]; then
    echo "the tree grew past $ceiling .rs lines" >&2
    exit 1
  fi
  # PR 23 removed the second set-up arm and the Maxwell state clone pair.
  if grep -rn --include='*.rs' -E 'scf_initial_state|MaxwellState|export_state' crates src tests examples; then
    echo "a name PR 23 deleted is back (lines above)" >&2
    exit 1
  fi
  # PR 26: the projector's reference is real and held once; its GEMMs are
  # the real block kernels. Neither the complex projector kernels, the
  # packed GEMM nor the complex reference copies come back.
  if grep -rn --include='*.rs' -E 'proj_overlap|proj_update|try_gemm_packed|microkernel|psi0_t|psi0u_t' \
    crates src tests examples; then
    echo "a name PR 26 deleted is back (lines above)" >&2
    exit 1
  fi
  # The orthonormalisation's triangular step is the inverse factor on the
  # update kernel; the scalar row solve and the Rayleigh-Ritz alias of
  # `refine_states(h, x, 0)` do not come back.
  if grep -rn --include='*.rs' -E 'solve_rows_lower_transposed|rayleigh_ritz\(' crates src tests examples; then
    echo "a deleted set-up solver name is back (lines above)" >&2
    exit 1
  fi
  # The Rayleigh-Ritz step is Householder + implicit QL; the real Jacobi
  # does not come back (the complex one stays as the tests' oracle).
  if grep -rn --include='*.rs' -E 'jacobi_rotate_real' crates src tests examples; then
    echo "the real Jacobi is back (lines above)" >&2
    exit 1
  fi
  # A ragged end is a masked load and store at every width; the stack-buffer
  # copy (too small for sixteen f32 lanes) does not come back.
  if grep -rn --include='*.rs' -E 'load_head|store_head' crates src tests examples; then
    echo "a deleted lane method is back (lines above)" >&2
    exit 1
  fi
  # One request API: every comm call panics through `escalate` and
  # `World::try_run` is the one place a failure is a value; the mailbox is an
  # exactly-once FIFO, so no message fault, dedup rule or fault-plan field
  # for one comes back, and comm does not read the fault plan. The scaling
  # drivers step modeled clocks in lockstep, so the payload-free modeled
  # send and the collectives only they called do not come back either.
  if grep -rn --include='*.rs' -E \
    'try_send|try_recv|try_wait|try_isend|try_allreduce|try_send_modeled|MessageAction|dup_defer|dedup_floor|drop_prob|kill_rank|send_modeled|logical_bytes|allreduce_(with|sum|raw)|COLLECTIVE_TAG_BASE|collective_seq|\.barrier\(' \
    crates src tests examples; then
    echo "a deleted comm call or message fault is back (lines above)" >&2
    exit 1
  fi
  # One radial kernel: erf is the series, the tables are quintic Hermite
  # ones, and the bit-identity oracles of the scalar loops do not come back.
  if grep -rn --include='*.rs' -E 'erf_table|ERF_NODES_PER_UNIT|local_pseudo_forces_oracle' crates src tests examples; then
    echo "a name the radial kernel deleted is back (lines above)" >&2
    exit 1
  fi
  # The set-up diagonalises each slab's bare local potential: the SCF loops,
  # the Hartree and XC terms, the multigrid and FFT Poisson solvers, the DC
  # decomposition and the serial GEMM wrapper do not come back.
  if grep -rln --include='*.rs' -E \
    'run_scf|run_dc_scf|DcScfConfig|HartreeSolver|Multigrid|MgParams|poisson_fft_periodic|DcDecomposition|xc_potential|gemm_blocked' \
    crates src tests examples; then
    echo "a name the ground-state stack's removal deleted is back (files above)" >&2
    exit 1
  fi
  # Fault tolerance said once: the codec and container live in
  # core::checkpoint, the NaN injection in lfd::fault, and a served job
  # recovers through its runner's rollbacks alone. Neither the crate, the
  # fault-plan struct nor the serve retry path comes back.
  if grep -rn -E 'dcmesh_ckpt|dcmesh-ckpt|FaultPlan|with_installed|requeue_front|ResumeState|from_snapshot' \
    Cargo.toml crates src tests examples; then
    echo "a name the checkpoint crate's fold deleted is back (lines above)" >&2
    exit 1
  fi
  # One telemetry channel: spans and trace events, and every other number
  # is a value the API returns. The metrics registry and its per-rank
  # latency names do not come back.
  if grep -rn -E 'dcmesh_obs::metrics|counter_add|gauge_set|histogram_record|MetricsSnapshot|p2p_names' \
    Cargo.toml crates src tests examples; then
    echo "a name the metrics registry's removal deleted is back (lines above)" >&2
    exit 1
  fi
  # One body per kernel: the scalar backend runs the lane bodies on portable
  # lanes, so neither the hand-written scalar twins nor the line kernel's
  # operations trait come back.
  if grep -rn --include='*.rs' -E 'scale_scalar|pair_update_scalar|pair_rotate_scalar|radial_scalar|ScalarOps|LineOps|OnLanes' \
    crates src tests examples; then
    echo "a scalar twin of a kernel body is back (lines above)" >&2
    exit 1
  fi
  # One kernel per operation: the complex GEMM is the reference loop, every
  # line of the kinetic kernel replays its sweep on its own, and the pool has
  # four verbs. The blocked GEMM, the lockstep line groups and the three
  # pool verbs without a caller outside tests do not come back.
  if grep -rn --include='*.rs' -E 'gemm_colmajor|gemm_naive|lockstep_lines|for_each_mut|map_index|for_each_chunk_mut' \
    crates src tests examples; then
    echo "a deleted second path (blocked GEMM, lockstep groups, pool verb) is back (lines above)" >&2
    exit 1
  fi
  # The SIMD directory has a budget of its own: every line before a file's
  # `#[cfg(test)]`. 1,913 at PR 24 (its real block kernel), 1,137 since
  # PR 26 deleted the complex projector kernels and the packed GEMM.
  printf '%7d  crates/math/src/simd, non-test\n' \
    "$(for f in crates/math/src/simd/*.rs; do awk '/^#\[cfg\(test\)\]/ { exit } { print }' "$f"; done | wc -l)"

  echo "== set-up eigensolver at the benchmark's three shapes =="
  # One `eig <shape>: iterations, h_applications, max residual, lowest
  # values` line each (one cold solve over 24 seeds) and one `setup <shape>:
  # iterations [..] h_applications [..]` line each (every domain of a
  # `DcMeshSim::new`: a warm start that stops paying shows as a count), from
  # crates/core/tests/eigensolver_setup.rs; the tests fail on a residual
  # above the solver's tolerance, on an iteration count near the cap, or on a
  # warm domain past its budget. Release build: four of them take minutes in
  # a debug one and are ignored there.
  local eig_out
  eig_out=$(mktemp /tmp/dcmesh_eig_XXXXXX.log)
  SCRATCH+=("$eig_out")
  cargo test --release -p dcmesh-core --test eigensolver_setup --no-run -q
  capped cargo test --release -p dcmesh-core --test eigensolver_setup -- \
    --nocapture --test-threads=1 > "$eig_out" 2>&1 || {
    cat "$eig_out" >&2
    exit 1
  }
  # -o: under --nocapture a line shares its row with the harness's "test ... ".
  grep -o -e 'eig [0-9].*' -e 'setup [0-9].*' "$eig_out"
  if [ "$(grep -c -o 'eig [0-9].*' "$eig_out")" -ne 3 ] || [ "$(grep -c -o 'setup [0-9].*' "$eig_out")" -ne 3 ]; then
    echo "want three 'eig <shape>:' and three 'setup <shape>:' lines" >&2
    exit 1
  fi

  echo "== cargo bench --workspace --no-run =="
  cargo bench --workspace --no-run
  cargo test --workspace --no-run -q

  echo "== pool tests at DCMESH_THREADS=2 =="
  DCMESH_THREADS=2 capped cargo test -q -p dcmesh-pool -p dcmesh-device -p dcmesh-lfd

  echo "== AVX-512 lanes give the AVX2 lanes' bits, release (4096 points included) =="
  ran_some cargo test --release -q -p dcmesh-math --test simd_equivalence avx512_gives_the_bits_of_avx2

  echo "== every lane entry point compiles its body whole (no call out of on_256 / on_512) =="
  # A body, or a helper over vectors, left out of line runs without the
  # entry point's target features and passes every vector through memory
  # (several times slower, same bits — no test sees it). Two release
  # binaries, each with a floor on its instantiations of either entry point
  # (a body that drops out of one fails too): simd_equivalence instantiates
  # every body, f64 and f32, at both widths (11; its radial body runs the
  # test's near terms, a quintic table of three pieces, a piece per lane),
  # and the root dcmesh_pipeline test the bodies the workloads run (9: the
  # line kernel, the block products, and the radial pass over the force
  # field's `qxmd::forcefield::Row` and the pseudopotential's
  # `tddft::forces::VLoc`), so the gathers, the tables' arithmetic and
  # `Lane` on the lanes are checked inside them.
  if command -v objdump > /dev/null; then
    local floor args bin calls
    while read -r floor args; do
      # shellcheck disable=SC2086 # $args is several words
      bin=$(cargo test --release -q $args --no-run --message-format json 2>/dev/null \
        | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p' | tail -1)
      calls=$(objdump -d --no-show-raw-insn -C "$bin" | awk -v floor="$floor" -v bin="${bin##*/}" '
        /^[0-9a-f]+ <dcmesh_math::simd::x86::on_(256|512)/ { entry = $2; match($2, /on_(256|512)/); n[substr($2, RSTART, RLENGTH)]++; next }
        /^[0-9a-f]+ </ { entry = "" }
        entry != "" && /\tcall/ { print entry, $0 }
        END { if (n["on_256"] < floor || n["on_512"] < floor)
                printf "%s: %d on_256 and %d on_512 instantiations, want %d of each\n", bin, n["on_256"], n["on_512"], floor
              else printf "%s: %d + %d instantiations of on_256 / on_512 checked\n", bin, n["on_256"], n["on_512"] > "/dev/stderr" }')
      if [ -n "$calls" ]; then
        echo "$calls" >&2
        exit 1
      fi
    done <<'BINARIES'
11 -p dcmesh-math --test simd_equivalence
9 --test dcmesh_pipeline
BINARIES
  else
    echo "objdump not found: skipped"
  fi

  echo "== real x complex projector against its triple loops, release (13,824 points included) =="
  ran_some cargo test --release -q -p dcmesh-lfd --lib real_projector_matches_triple_loops

  echo "== SIMD forced-scalar suites (math + lfd) =="
  # The math and lfd suites once more with every implicitly dispatched kernel
  # on the scalar backend, whose bits are the lanes' (simd_equivalence and
  # sp_backends hold the backends equal explicitly whatever the override).
  DCMESH_SIMD=scalar capped cargo test -q -p dcmesh-math -p dcmesh-lfd

  echo "== concurrency suites under the shadow-access race detector =="
  # --test-threads=1: shadow intervals are raw addresses, so unrelated
  # tests must not interleave reallocations (see crates/analyze/src/race.rs).
  DCMESH_RACECHECK=1 capped cargo test -q -p dcmesh-pool -p dcmesh-device -p dcmesh-lfd -- --test-threads=1

  echo "== comm failures, NaN recovery and restart equivalence =="
  # The NaN injection is process-global, so the NaN-injection suites serialize through dcmesh_lfd::fault::test_lock.
  capped cargo test -q -p dcmesh-comm --test faults
  ran_some cargo test -q -p dcmesh-lfd --lib fault
  ran_some cargo test -q -p dcmesh-core --lib checkpoint
  # The runner's tests (recording, warning-before-rollback, NaN recovery)
  # live in crates/core/src/resilience.rs.
  ran_some cargo test -q -p dcmesh-core resilience
  capped cargo test -q --test restart_equivalence

  echo "== serve edge cases (cancellation, backpressure, eviction, replay) =="
  capped cargo test -q -p dcmesh-serve

  echo "== checkpoint/restore smoke (fig7 driver round-trip) =="
  CKPT_SMOKE=$(mktemp -u /tmp/dcmesh_smoke_XXXXXX.ckpt)
  SCRATCH+=("$CKPT_SMOKE")
  SMOKE_OUT=$(mktemp /tmp/dcmesh_smoke_out_XXXXXX.log)
  SCRATCH+=("$SMOKE_OUT")
  cargo run -q --release -p dcmesh-bench --bin fig7_flux_closure -- \
    --checkpoint "$CKPT_SMOKE" --checkpoint-every 6 > /dev/null
  # Capture to a file rather than piping into grep -q: an early-exiting
  # grep would SIGPIPE the driver mid-run.
  cargo run -q --release -p dcmesh-bench --bin fig7_flux_closure -- \
    --restore "$CKPT_SMOKE" > "$SMOKE_OUT"
  grep -q "restored checkpoint" "$SMOKE_OUT"

  echo "== comm request-lifecycle model check (sched explorer) =="
  capped cargo test -q --test comm_request_modelcheck

  echo "== serve_load loses no job (12 jobs, concurrency 1 and 2) =="
  # No deadline and a queue that holds the batch: the driver exits nonzero
  # unless every job completes at both levels, with one digest.
  cargo build -q --release -p dcmesh-bench --bin serve_load
  capped cargo run -q --release -p dcmesh-bench --bin serve_load -- \
    --jobs 12 --concurrency 1,2 > /dev/null

  echo "== Figs. 2-3 at their documented sweeps (no comm deadline) =="
  # The scaling drivers step one modeled clock per simulated rank in
  # lockstep (no thread per rank, no receive deadline to raise), so README's
  # default sweeps, P = 4 ... 1,024 for Fig. 2, run as documented with and
  # without --no-overlap. The efficiencies are the ones the thread-per-rank
  # driver printed before the lockstep model replaced it: the model did not
  # move.
  cargo build -q --release -p dcmesh-bench --bin fig2_weak_scaling --bin fig3_strong_scaling
  local fig_out flag
  fig_out=$(mktemp /tmp/dcmesh_fig23_XXXXXX.log)
  SCRATCH+=("$fig_out")
  for flag in "" --no-overlap; do
    capped env -u DCMESH_COMM_DEADLINE_MS cargo run -q --release -p dcmesh-bench \
      --bin fig2_weak_scaling -- --deterministic ${flag:+"$flag"} > "$fig_out"
    grep '^efficiency at P' "$fig_out"
    grep -q '^efficiency at P = 1024: 0.9741 ' "$fig_out" || {
      echo "fig2 ${flag:-(overlap)}: want 'efficiency at P = 1024: 0.9741'" >&2
      exit 1
    }
    capped env -u DCMESH_COMM_DEADLINE_MS cargo run -q --release -p dcmesh-bench \
      --bin fig3_strong_scaling -- --deterministic ${flag:+"$flag"} > "$fig_out"
    grep -q '^efficiency at P = 256: 0.6612 ' "$fig_out" || {
      echo "fig3 ${flag:-(overlap)}: want 'efficiency at P = 256: 0.6612'" >&2
      exit 1
    }
  done

  echo "== Table I nowait ablation (modeled clock: asynchronous beats synchronous) =="
  # `nowait` is a policy of the modeled device clock and nothing else (no
  # kernel body is ever deferred to a thread), so these lines are its one
  # observable. At --quick the two Algorithm 5 rows are modeled, hence
  # exact: 0.0003 s with nowait and 0.0030 s without (a 910.54 % gain) at
  # PR 14, the last commit that had per-stream lane threads. They stay there.
  local t1_out t1_rows t1_gain
  t1_out=$(mktemp /tmp/dcmesh_table1_XXXXXX.log)
  SCRATCH+=("$t1_out")
  cargo run -q --release -p dcmesh-bench --bin table1 -- --quick --deterministic > "$t1_out"
  t1_rows=$(awk -F'|' '/^\| Algorithm 5/ { gsub(/ /, "", $4); printf "%s ", $4 }' "$t1_out")
  t1_gain=$(sed -n 's/^asynchronous (nowait) gain over synchronous: \(-\{0,1\}[0-9.]*\)%.*/\1/p' "$t1_out")
  echo "Algorithm 5 modeled rows: $t1_rows(nowait, disable nowait); gain $t1_gain %"
  if [ "$t1_rows" != "0.0003 0.0030 " ]; then
    echo "table1: the modeled Algorithm 5 rows moved (want 0.0003 0.0030)" >&2
    exit 1
  fi
  awk -v g="$t1_gain" 'BEGIN { exit !(g > 0) }' || {
    echo "table1: no positive nowait gain ('$t1_gain')" >&2
    exit 1
  }

  echo "== Table II modeled GPU rows (the paper's algorithm) and the merged-half-step line =="
  # The modeled device is charged the paper's two nonlocal half-steps per
  # QD step whatever the host merges (PR 17), so at --quick the nonlocal and
  # total cells (SP, DP) of the three GPU rows are exact. These are PR 16's,
  # as is the paper's side of the merged line (2.817921e-5 s on both cuBLAS
  # rows); the merged side is this repository's extension and must read
  # strictly below it.
  local t2_out t2_rows t2_merged
  t2_out=$(mktemp /tmp/dcmesh_table2_XXXXXX.log)
  SCRATCH+=("$t2_out")
  cargo run -q --release -p dcmesh-bench --bin table2 -- --quick --deterministic > "$t2_out"
  t2_rows=$(awk -F'|' '/^\| GPU.*modeled/ { gsub(/ /, ""); printf "%s,%s,%s,%s ", $5, $6, $9, $10 }' "$t2_out")
  echo "GPU rows (nonlocal SP,DP, total SP,DP): $t2_rows"
  if [ "$t2_rows" != "0.0000,0.0000,0.0216,0.0221 0.0000,0.0000,0.0199,0.0201 0.0000,0.0000,0.0019,0.0019 " ]; then
    echo "table2: the modeled GPU rows moved" >&2
    exit 1
  fi
  t2_merged=$(sed -n "s/^merged half-steps (this repository's extension of Eq. (7)).* paper's -> merged: //p" "$t2_out")
  echo "merged half-steps, paper's -> merged: $t2_merged"
  echo "$t2_merged" | tr ';' '\n' | awk '
    $1 != "2.817921e-5" || !($3 < $1) { bad = 1 }
    END { exit !(NR == 2 && !bad) }' || {
    echo "table2: the merged-half-step line is missing, moved its paper side, or is not below it" >&2
    exit 1
  }
}

TIER="${1:-all}"
case "$TIER" in
  quick) tier_quick ;;
  gates) tier_gates ;;
  all)
    tier_quick
    tier_gates
    ;;
  *)
    echo "usage: $0 [quick|gates|all]" >&2
    exit 2
    ;;
esac

echo "All checks passed ($TIER)."
