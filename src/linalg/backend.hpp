#pragma once
//! \file backend.hpp
//! Runtime-selectable kernel backends — the paper's "generic vs
//! vendor-optimized implementations of the same math" axis.
//!
//! A Backend bundles the level-3 kernels the workloads execute (GEMM, the
//! SYRK-based Gram matrix, Cholesky). Three backends exist:
//!
//!  * `reference` — the textbook loops; always registered, always the oracle
//!                  the parity suite compares every other backend against.
//!  * `portable`  — the blocked/packed/OpenMP kernels; always registered and
//!                  the process default, so a build without a vendor BLAS
//!                  behaves exactly as before this layer existed.
//!  * `blas`      — vendor `dgemm`/`dsyrk`/`dpotrf` via the Fortran ABI;
//!                  registered only when the build found a BLAS/LAPACK
//!                  (`-DRELPERF_ENABLE_BLAS=ON`) or uses the bundled testing
//!                  shim (`-DRELPERF_BLAS_SHIM=ON`).
//!
//! Dispatch is ambient: `linalg::gemm` / `linalg::gram` /
//! `linalg::cholesky_factor` route through the *active* backend, so call
//! sites do not change. The active backend is the per-thread override when a
//! ScopedBackend is live on this thread, else the process default. Shape and
//! SPD preconditions are enforced by the dispatching wrappers, giving every
//! backend an identical error contract.

#include "linalg/matrix.hpp"

#include <string>
#include <vector>

namespace relperf::linalg {

/// One kernel implementation set. All three pointers must be non-null; every
/// kernel must satisfy the contracts documented on the dispatching wrappers
/// (gemm / gram / cholesky_factor) — the parity suite in
/// tests/linalg/backend_parity_test.cpp checks each registered backend
/// against the reference oracles automatically.
struct Backend {
    std::string name;        ///< Registry key, e.g. "portable".
    std::string description; ///< One line for --list-backends probes.
    /// C = alpha * A * B + beta * C (shapes already validated).
    void (*gemm)(double alpha, const Matrix& a, const Matrix& b, double beta,
                 Matrix& c) = nullptr;
    /// C = AᵀA, full mirrored storage; C is resized/overwritten.
    void (*syrk)(const Matrix& a, Matrix& c) = nullptr;
    /// In-place lower Cholesky factor; zeroes the strict upper triangle;
    /// throws InvalidArgument when `a` is not positive definite.
    void (*cholesky)(Matrix& a) = nullptr;
};

/// Built-in backend names.
inline constexpr const char* kReferenceBackend = "reference";
inline constexpr const char* kPortableBackend = "portable";
inline constexpr const char* kBlasBackend = "blas";

/// Registers an additional backend. Throws InvalidArgument on an empty or
/// duplicate name or a null kernel pointer. Thread-safe.
void register_backend(Backend backend);

/// Looks a backend up by name; throws InvalidArgument listing the registered
/// names when `name` is unknown. Returned reference stays valid for the
/// process lifetime.
[[nodiscard]] const Backend& backend(const std::string& name);

[[nodiscard]] bool has_backend(const std::string& name);

/// Registered names, in registration order ("reference", "portable", then
/// "blas" when built in, then user registrations).
[[nodiscard]] std::vector<std::string> backend_names();

/// Process-default backend ("portable" until set_default_backend is called).
[[nodiscard]] const Backend& default_backend();
void set_default_backend(const std::string& name);

/// The backend ambient dispatch uses on this thread: the innermost live
/// ScopedBackend override, else the process default.
[[nodiscard]] const Backend& active_backend();

/// RAII per-thread backend override. Nestable; restores the previous
/// override on destruction. The override is thread-local on purpose: threads
/// running different campaigns select their backends without racing each
/// other.
class ScopedBackend {
public:
    explicit ScopedBackend(const std::string& name);
    explicit ScopedBackend(const Backend& backend);
    ~ScopedBackend();

    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

private:
    const Backend* saved_;
};

} // namespace relperf::linalg
