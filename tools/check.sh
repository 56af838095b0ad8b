#!/usr/bin/env bash
# Full verification gate, split into individually callable stages so CI
# jobs and local iteration reuse the exact same commands:
#   build  build + ctest in the regular configuration (-Wshadow -Werror),
#   asan   build + ctest under ASan+UBSan in Debug (assertions on, so
#          every executor run re-validates its provenance graph),
#   tidy   clang-tidy over src/ and tools/ (skipped when not installed),
#   tsan   build + concurrency-focused ctest subset under ThreadSanitizer
#          in Debug: the multi-worker executor, the lock-free StringPool
#          and MetricsRegistry, and the workflow generators that drive
#          them with several worker threads,
#   lint   `lipstick lint` over every example workflow, then
#          `lipstick analyze --json` over the same set — any diagnostic
#          of severity warning or above fails the gate, as does a
#          malformed analysis report,
#   crash  crash-consistency gate: the durability and crash-matrix tests
#          (injected torn writes, corrupted frames, and failed fsyncs at
#          50+ distinct positions) plus a CLI-level torn-log recovery
#          smoke on a real workflow file,
#   perf   Release-mode perf smoke: the PERF_BENCHES harnesses at small
#          scale must run to completion; their results_json lines are
#          collected into BENCH_results.json and compared against the
#          checked-in BENCH_baseline.json (tools/bench_compare.py). The
#          compare is enforced when LIPSTICK_PERF_GATE=1 (CI sets this);
#          otherwise it is report-only, since absolute timings differ
#          across machines. Regenerate the baseline on the reference
#          machine with:
#            tools/check.sh perf && python3 tools/bench_compare.py \
#              compare BENCH_baseline.json build-release/BENCH_results.json --update
#   integration
#          end-to-end serve/connect gate: boots `lipstick serve` on an
#          ephemeral port, drives a scripted `query --connect` session
#          (one-shot ops, a batch file, the error envelope), diffs every
#          byte against local-mode output, then SIGTERMs the daemon and
#          verifies a clean drain — nonzero on any output drift, a leaked
#          child process, or a port still listening,
#   soak   multi-client stress of the daemon under ThreadSanitizer:
#          bench_serve with 8 concurrent clients (LIPSTICK_SOAK_SECONDS,
#          default 20), then a second run with LIPSTICK_FAULTS arming the
#          service.read/service.write socket fault points,
#   coverage
#          line-coverage gate: Debug build with -DLIPSTICK_COVERAGE=ON,
#          full ctest suite, then tools/coverage_gate.py (plain gcov, no
#          gcovr needed) enforcing >= 80% line coverage on src/service/,
#   all    every stage, in the order above (the default; coverage and
#          soak excluded — they rebuild the world and run long, CI runs
#          them as dedicated jobs).
# Usage: tools/check.sh [build|asan|tsan|tidy|lint|crash|perf|integration|soak|coverage|all] [extra ctest args...]
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 4)"

# The one perf-smoke bench list, shared by the perf stage here and the
# bench job in .github/workflows/ci.yml (which calls this stage).
PERF_BENCHES=(bench_prov_size bench_fig6a_graph_build_dealerships bench_fig7a_zoom bench_fig7b_subgraph_dealerships bench_fig7c_subgraph_arctic bench_obs_overhead bench_fault_overhead bench_wal_overhead bench_analyze bench_pipeline bench_serve)

# Use ccache when available (CI caches it across runs).
CMAKE_LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CMAKE_LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_config() {
  local build_dir="$1"; shift
  echo "=== ${build_dir} ($*) ==="
  cmake -B "${repo}/${build_dir}" -S "${repo}" \
        ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} "$@" >/dev/null
  cmake --build "${repo}/${build_dir}" -j "${jobs}"
  ctest --test-dir "${repo}/${build_dir}" --output-on-failure -j "${jobs}" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
}

run_build() { run_config build; }

run_asan() {
  run_config build-asan -DLIPSTICK_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug
}

# The tests that actually spin up threads: the multi-worker executor
# (workflow_test, workflowgen_test, property_test, dataflow_test drive it
# with num_workers > 1), the lock-free StringPool (provenance_test), the
# MetricsRegistry + TraceBuffer concurrency tests (obs_test), and the
# snapshot/traversal read-path stress (snapshot_test: concurrent readers,
# work-stealing ParallelFor/ParallelReach, lazy views), the plan engine
# (plan_test: multi-threaded plan execution + the shared PlanViewCache),
# and the query service (service_test: accept/session/worker threads, hot
# reload, concurrent clients).
TSAN_TESTS='^(workflow_test|workflowgen_test|property_test|dataflow_test|provenance_test|obs_test|snapshot_test|plan_test|service_test)$'

run_tsan() {
  local saved=(${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"})
  CTEST_ARGS=(-R "${TSAN_TESTS}" ${saved[@]+"${saved[@]}"})
  run_config build-tsan -DLIPSTICK_SANITIZE=THREAD -DCMAKE_BUILD_TYPE=Debug
  CTEST_ARGS=(${saved[@]+"${saved[@]}"})
}

run_tidy() {
  echo "=== clang-tidy ==="
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping (profile: .clang-tidy)"
    return 0
  fi
  cmake -B "${repo}/build" -S "${repo}" \
        -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  find "${repo}/src" "${repo}/tools" -name '*.cc' -print0 |
    xargs -0 -P "${jobs}" -n 8 clang-tidy -p "${repo}/build" --quiet
}

run_lint() {
  echo "=== lint: examples/workflows ==="
  local cli="${repo}/build/tools/lipstick"
  if [[ ! -x "${cli}" ]]; then
    echo "building lipstick_cli for lint..."
    cmake -B "${repo}/build" -S "${repo}" \
          ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} >/dev/null
    cmake --build "${repo}/build" -j "${jobs}" --target lipstick_cli
  fi
  for wf in "${repo}"/examples/workflows/*.wf; do
    echo "--- ${wf#"${repo}"/}"
    "${cli}" lint "${wf}"
    # Static dataflow analysis must also come back clean (exit 0 = no
    # warnings) and produce a well-formed JSON report. dealership_mini
    # needs its example CSV bindings: without them the external relations
    # are statically empty and every derivation flags D0403.
    local analyze_args=()
    if [[ "${wf}" == */dealership_mini.wf ]]; then
      local exdir="${repo}/examples/workflows"
      analyze_args=(--input "req.Ext=${exdir}/dealership_requests.csv"
                    --state "dealer1.Cars=${exdir}/dealership_cars1.csv"
                    --state "dealer2.Cars=${exdir}/dealership_cars2.csv")
    fi
    "${cli}" analyze "${wf}" --json \
             ${analyze_args[@]+"${analyze_args[@]}"} \
        | python3 -m json.tool >/dev/null
  done

  echo "--- explain --json goldens (examples/goldens)"
  # The optimizer's rewrite reports and the cost model's predictions are
  # part of the tool's contract: `explain --json` over a deterministic
  # dealership run must match the committed goldens byte for byte.
  local work
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '${work}'" RETURN
  local ex="${repo}/examples/workflows"
  "${cli}" run "${ex}/dealership_mini.wf" --execs 3 \
           --input "req.Ext=${ex}/dealership_requests.csv" \
           --state "dealer1.Cars=${ex}/dealership_cars1.csv" \
           --state "dealer2.Cars=${ex}/dealership_cars2.csv" \
           --graph "${work}/g.pg" >/dev/null
  "${cli}" explain "${work}/g.pg" stats --json \
           > "${work}/explain_stats.json"
  "${cli}" explain "${work}/g.pg" \
           "zoomout dealer | subgraph 281474976710657 | stats" --json \
           > "${work}/explain_pipeline.json"
  for name in explain_stats explain_pipeline; do
    python3 -m json.tool < "${work}/${name}.json" >/dev/null || {
      echo "FAIL: ${name} is not valid JSON"; return 1; }
    diff -u "${repo}/examples/goldens/${name}.json" "${work}/${name}.json" || {
      echo "FAIL: ${name} drifted from examples/goldens/${name}.json"
      return 1; }
  done
  echo "explain goldens OK"
}

run_crash() {
  echo "=== crash consistency (durability + crash matrix + CLI recovery) ==="
  cmake -B "${repo}/build" -S "${repo}" \
        ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} >/dev/null
  cmake --build "${repo}/build" -j "${jobs}" \
        --target durability_test crash_matrix_test lipstick_cli
  ctest --test-dir "${repo}/build" --output-on-failure -j "${jobs}" \
        -R '^(durability_test|crash_matrix_test)$'

  echo "--- CLI torn-log recovery smoke"
  local cli="${repo}/build/tools/lipstick"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "${work}"' RETURN
  "${cli}" run "${repo}/examples/workflows/running_total.wf" \
           --execs 3 --wal "${work}/wal" --graph "${work}/clean.pg"
  # Tear the tail of the last segment: the final execution's commit is
  # gone, but everything before the last durable savepoint must survive.
  local seg; seg="$(ls "${work}"/wal/wal-*.log | sort | tail -1)"
  local size; size="$(stat -c %s "${seg}")"
  truncate -s "$((size - 5))" "${seg}"
  "${cli}" recover "${work}/wal" --out "${work}/recovered.pg"
  "${cli}" validate "${work}/recovered.pg"
  echo "crash stage OK"
}

run_perf() {
  echo "=== perf smoke (Release, LIPSTICK_BENCH_SCALE=${LIPSTICK_BENCH_SCALE:-0.02}) ==="
  local scale="${LIPSTICK_BENCH_SCALE:-0.02}"
  local build_dir="${repo}/build-release"
  cmake -B "${build_dir}" -S "${repo}" -DCMAKE_BUILD_TYPE=Release \
        ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} >/dev/null
  cmake --build "${build_dir}" -j "${jobs}" --target "${PERF_BENCHES[@]}"
  local out outputs=()
  for bench in "${PERF_BENCHES[@]}"; do
    echo "--- ${bench}"
    out="$(LIPSTICK_BENCH_SCALE="${scale}" "${build_dir}/bench/${bench}")" || {
      echo "FAIL: ${bench} exited non-zero"; return 1; }
    [[ -n "${out}" ]] || { echo "FAIL: ${bench} produced no output"; return 1; }
    echo "${out}" | tail -3
    if ! grep -q '^results_json: ' <<<"${out}"; then
      echo "FAIL: ${bench} lost its results_json line"
      return 1
    fi
    if [[ "${bench}" == bench_prov_size ]] &&
       ! grep -q '^memory_stats_json: ' <<<"${out}"; then
      echo "FAIL: bench_prov_size lost its memory_stats_json line"
      return 1
    fi
    echo "${out}" > "${build_dir}/${bench}.out"
    outputs+=("${build_dir}/${bench}.out")
  done

  echo "--- collect + compare vs BENCH_baseline.json"
  python3 "${repo}/tools/bench_compare.py" collect \
          "${build_dir}/BENCH_results.json" "${outputs[@]}"
  if [[ "${LIPSTICK_PERF_GATE:-0}" == "1" ]]; then
    python3 "${repo}/tools/bench_compare.py" compare \
            "${repo}/BENCH_baseline.json" "${build_dir}/BENCH_results.json"
  else
    python3 "${repo}/tools/bench_compare.py" compare \
            "${repo}/BENCH_baseline.json" "${build_dir}/BENCH_results.json" ||
      echo "(report-only: set LIPSTICK_PERF_GATE=1 to enforce)"
  fi
}

run_integration() {
  echo "=== integration: serve/connect end-to-end ==="
  local cli="${repo}/build/tools/lipstick"
  cmake -B "${repo}/build" -S "${repo}" \
        ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} >/dev/null
  cmake --build "${repo}/build" -j "${jobs}" --target lipstick_cli

  local work serve_pid=""
  work="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "[[ -n \"\${serve_pid}\" ]] && kill -9 \"\${serve_pid}\" 2>/dev/null; rm -rf '${work}'" RETURN

  echo "--- build a graph to serve"
  local ex="${repo}/examples/workflows"
  "${cli}" run "${ex}/dealership_mini.wf" --execs 3 \
           --input "req.Ext=${ex}/dealership_requests.csv" \
           --state "dealer1.Cars=${ex}/dealership_cars1.csv" \
           --state "dealer2.Cars=${ex}/dealership_cars2.csv" \
           --graph "${work}/g.pg"

  # Pick a real token node for the pointed queries (ids are deterministic
  # for fixed inputs, but extracting one keeps the script honest).
  local id
  id="$("${cli}" query "${work}/g.pg" find --label token | head -1 |
        awk '{print $1}')"
  [[ -n "${id}" ]] || { echo "FAIL: no token node found"; return 1; }

  # The scripted session: one-shot ops plus a batch file. Every query must
  # produce byte-identical output in local and serve mode.
  local ops=("stats" "find --label token" "expr ${id}" "subgraph ${id}"
             "zoomout dealer")
  cat > "${work}/batch.txt" <<EOF
stats
find --label token
subgraph ${id}
zoomout dealer | subgraph ${id} | stats
EOF

  echo "--- local-mode golden outputs"
  local i=0
  for op in "${ops[@]}"; do
    # shellcheck disable=SC2086
    "${cli}" query "${work}/g.pg" ${op} > "${work}/local.${i}.out"
    i=$((i + 1))
  done
  "${cli}" query "${work}/g.pg" --batch "${work}/batch.txt" \
           > "${work}/local.batch.out"

  echo "--- boot lipstick serve (ephemeral port)"
  "${cli}" serve "${work}/g.pg" --port 0 > "${work}/serve.log" 2>&1 &
  serve_pid=$!
  local port="" tries=0
  while [[ -z "${port}" ]]; do
    port="$(sed -n 's/^serve: listening on [0-9.]*:\([0-9]*\)$/\1/p' \
            "${work}/serve.log")"
    [[ -n "${port}" ]] && break
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "FAIL: serve exited before listening"; cat "${work}/serve.log"
      serve_pid=""; return 1
    fi
    tries=$((tries + 1))
    if [[ "${tries}" -gt 100 ]]; then
      echo "FAIL: serve never printed its port"; cat "${work}/serve.log"
      return 1
    fi
    sleep 0.1
  done
  echo "serving on port ${port} (pid ${serve_pid})"

  echo "--- remote session must match local byte-for-byte"
  i=0
  for op in "${ops[@]}"; do
    # shellcheck disable=SC2086
    "${cli}" query --connect "127.0.0.1:${port}" ${op} \
             > "${work}/remote.${i}.out"
    diff -u "${work}/local.${i}.out" "${work}/remote.${i}.out" || {
      echo "FAIL: output drift on '${op}'"; return 1; }
    i=$((i + 1))
  done
  "${cli}" query --connect "127.0.0.1:${port}" --batch "${work}/batch.txt" \
           > "${work}/remote.batch.out"
  diff -u "${work}/local.batch.out" "${work}/remote.batch.out" || {
    echo "FAIL: batch output drift"; return 1; }

  echo "--- pipeline + explain must match local byte-for-byte"
  local pipe_q="zoomout dealer | subgraph ${id} | stats"
  "${cli}" query "${work}/g.pg" "${pipe_q}" > "${work}/local.pipe.out"
  "${cli}" query --connect "127.0.0.1:${port}" "${pipe_q}" \
           > "${work}/remote.pipe.out"
  diff -u "${work}/local.pipe.out" "${work}/remote.pipe.out" || {
    echo "FAIL: pipeline output drift"; return 1; }
  "${cli}" query "${work}/g.pg" explain "${pipe_q}" \
           > "${work}/local.explain.out"
  "${cli}" query --connect "127.0.0.1:${port}" explain "${pipe_q}" \
           > "${work}/remote.explain.out"
  diff -u "${work}/local.explain.out" "${work}/remote.explain.out" || {
    echo "FAIL: explain output drift"; return 1; }

  echo "--- error envelope carries the wire code"
  if "${cli}" query --connect "127.0.0.1:${port}" badop \
       2> "${work}/err.out"; then
    echo "FAIL: bad op did not exit nonzero"; return 1
  fi
  grep -q "error: invalid_argument:" "${work}/err.out" || {
    echo "FAIL: missing error envelope:"; cat "${work}/err.out"; return 1; }

  echo "--- SIGTERM must drain cleanly"
  kill -TERM "${serve_pid}"
  local rc=0
  wait "${serve_pid}" || rc=$?
  serve_pid=""
  if [[ "${rc}" -ne 0 ]]; then
    echo "FAIL: serve exited ${rc} on SIGTERM"; cat "${work}/serve.log"
    return 1
  fi
  grep -q "serve: drained, exiting" "${work}/serve.log" || {
    echo "FAIL: no drain message"; cat "${work}/serve.log"; return 1; }
  # The port must be released: a fresh connect has to be refused.
  if (exec 3<>"/dev/tcp/127.0.0.1/${port}") 2>/dev/null; then
    exec 3>&- 3<&-
    echo "FAIL: port ${port} still listening after drain"; return 1
  fi
  echo "integration stage OK"
}

run_soak() {
  echo "=== soak: bench_serve under TSan (8 clients) ==="
  local secs="${LIPSTICK_SOAK_SECONDS:-20}"
  local build_dir="${repo}/build-tsan"
  cmake -B "${build_dir}" -S "${repo}" -DLIPSTICK_SANITIZE=THREAD \
        -DCMAKE_BUILD_TYPE=Debug \
        ${CMAKE_LAUNCHER_ARGS[@]+"${CMAKE_LAUNCHER_ARGS[@]}"} >/dev/null
  cmake --build "${build_dir}" -j "${jobs}" --target bench_serve

  echo "--- clean soak (${secs}s)"
  LIPSTICK_BENCH_SCALE="${LIPSTICK_BENCH_SCALE:-0.05}" \
    "${build_dir}/bench/bench_serve" --clients 8 --seconds "${secs}"

  echo "--- fault soak: injected socket errors on service.read/service.write"
  LIPSTICK_BENCH_SCALE="${LIPSTICK_BENCH_SCALE:-0.05}" \
    LIPSTICK_FAULTS='service.read:p=0.02:seed=7;service.write:p=0.02:seed=11' \
    "${build_dir}/bench/bench_serve" --clients 8 --seconds "${secs}"
  echo "soak stage OK"
}

run_coverage() {
  echo "=== coverage: gcov line-coverage gate on src/service/ ==="
  local build_dir="${repo}/build-coverage"
  # No ccache here: cached objects can ship stale .gcno note files, which
  # silently zeroes the very numbers this stage gates on.
  cmake -B "${build_dir}" -S "${repo}" -DLIPSTICK_COVERAGE=ON \
        -DCMAKE_BUILD_TYPE=Debug >/dev/null
  cmake --build "${build_dir}" -j "${jobs}"
  # Stale counters from a previous run would inflate the numbers.
  find "${build_dir}" -name '*.gcda' -delete
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}" \
        ${CTEST_ARGS[@]+"${CTEST_ARGS[@]}"}
  python3 "${repo}/tools/coverage_gate.py" "${build_dir}" \
          --filter src/service/ --min 80 \
          --out "${build_dir}/COVERAGE_service.json"
}

stage="${1:-all}"
case "${stage}" in
  build|asan|tsan|tidy|lint|crash|perf|integration|soak|coverage)
    shift
    CTEST_ARGS=("$@")
    "run_${stage}"
    exit 0
    ;;
  all) if [[ $# -gt 0 ]]; then shift; fi ;;
  -*|'') ;;  # no stage named: run everything, args go to ctest
  *) echo "unknown stage '${stage}' (build|asan|tsan|tidy|lint|crash|perf|integration|soak|coverage|all)"; exit 2 ;;
esac

CTEST_ARGS=("$@")
run_build
run_asan
run_tsan
run_tidy
run_lint
run_crash
run_perf
run_integration
echo "All checks passed."
