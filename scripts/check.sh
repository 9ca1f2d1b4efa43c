#!/usr/bin/env bash
# One-shot verification gate: configure + build + lint + full test
# suite with the runtime lock-order validator on. This is the command
# to run before pushing; it is exactly what CI would run.
#
# Usage: scripts/check.sh [build-dir]
#   build-dir   defaults to ./build
#
# Environment:
#   GEKKO_SANITIZE   forward a sanitizer to the build
#                    (thread | address | undefined); uses a separate
#                    build dir build-<sanitizer> so the plain build
#                    stays warm.
#   JOBS             parallel build jobs (default: nproc)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SAN="${GEKKO_SANITIZE:-}"
if [ -n "${SAN}" ]; then
  BUILD_DIR="${1:-${REPO_ROOT}/build-${SAN}}"
else
  BUILD_DIR="${1:-${REPO_ROOT}/build}"
fi
JOBS="${JOBS:-$(nproc)}"

echo "== check.sh: configure (${BUILD_DIR}${SAN:+, sanitize=${SAN}})"
# GEKKO_THREAD_SAFETY is a hard error on violations under clang and a
# warned no-op under gcc, so it is always safe to request here.
cmake -S "${REPO_ROOT}" -B "${BUILD_DIR}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGEKKO_THREAD_SAFETY=ON \
      ${SAN:+-DGEKKO_SANITIZE=${SAN}} >/dev/null

echo "== check.sh: build (-j${JOBS})"
cmake --build "${BUILD_DIR}" -j"${JOBS}"

echo "== check.sh: lint gate (ctest -L lint)"
(cd "${BUILD_DIR}" && ctest -L lint --output-on-failure)

echo "== check.sh: sanitize-labeled suites"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest -L sanitize --output-on-failure)

echo "== check.sh: telemetry suite (ctest -L telemetry)"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest -L telemetry --output-on-failure)

echo "== check.sh: batched-metadata suite (ctest -L metadata_scale)"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest -L metadata_scale --output-on-failure)

echo "== check.sh: forensics suite (ctest -L forensics)"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest -L forensics --output-on-failure)

echo "== check.sh: full test suite (lockdep on)"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest --output-on-failure)

# Fabric threads deliver straight into engines, so an engine's teardown
# races those deliveries; such races show only now and then. Repeat the
# transport suites until one fails, ten runs each.
echo "== check.sh: transport suites x10 (lockdep on)"
(cd "${BUILD_DIR}" && GEKKO_LOCKDEP=1 ctest --output-on-failure \
    --repeat until-fail:10 \
    -R '^(net_rpc_test|tcp_fabric_test|uds_fabric_test|net_stress_test|fault_injection_test)$')

# Deterministic fuzz smoke: corpus replay + a fixed mutation budget per
# decoder family, in a dedicated ASan+UBSan build (the fuzz harnesses
# only exist under -DGEKKO_FUZZ=ON). Skipped when a sanitizer build was
# requested above — TSan does not compose with ASan, and the fuzz build
# pins its own sanitizers. scripts/fuzz.sh runs the long version.
if [ -z "${SAN}" ]; then
  FUZZ_BUILD_DIR="${REPO_ROOT}/build-fuzz"
  echo "== check.sh: fuzz smoke (configure ${FUZZ_BUILD_DIR})"
  cmake -S "${REPO_ROOT}" -B "${FUZZ_BUILD_DIR}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGEKKO_FUZZ=ON \
        -DGEKKO_SANITIZE=address+undefined \
        -DGEKKO_BUILD_BENCH=OFF \
        -DGEKKO_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build "${FUZZ_BUILD_DIR}" -j"${JOBS}" >/dev/null
  (cd "${FUZZ_BUILD_DIR}" && ctest -L fuzz --output-on-failure)
fi

echo "== check.sh: all gates passed"
