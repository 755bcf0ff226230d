#ifndef CONCEALER_STORAGE_FAULT_FS_H_
#define CONCEALER_STORAGE_FAULT_FS_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>

namespace concealer {

/// Deterministic fault-injection shim over the file operations the durable
/// paths issue (WAL appends, meta/node-file write-then-rename, segment
/// msync/ftruncate). Every durability-relevant syscall in the storage and
/// epoch-io layers goes through these wrappers, so a crash-point sweep can
/// *enumerate* the injection points instead of sampling them:
///
///   fault_fs::Arm(0)            — count mode: ops pass through, the counter
///                                 runs; OpsIssued() after a reference run is
///                                 the number of crash points N.
///   fault_fs::Arm(k, torn)      — fail the k-th op (1-based). A torn Write
///                                 persists a prefix before failing (the
///                                 shape a real crash mid-write leaves);
///                                 every other op fails cleanly. After the
///                                 injected failure the shim stays DOWN: all
///                                 later ops fail too, modeling a process
///                                 that crashed and issues no further I/O
///                                 (destructors' best-effort seals included).
///   fault_fs::Disarm()          — back to transparent passthrough.
///
/// Crash model: the process dies but the kernel survives, so everything
/// already handed to the page cache — including stores through MAP_SHARED
/// mmap mappings, which land in the file without any syscall — persists.
/// The shim therefore intercepts only explicit syscalls; mmap stores are
/// (correctly) never failed.
///
/// Disarmed, the wrappers are direct syscall passthroughs guarded by one
/// relaxed atomic load. State is process-global (each gtest case runs in
/// its own process under ctest); Arm/Disarm are not meant to race with
/// in-flight I/O.
namespace fault_fs {

/// Starts counting ops; op number `fail_at_op` (1-based) fails. 0 = count
/// only, never fail. `torn` makes the injected failure a partial write
/// (prefix persisted) when the op is a Write; other op kinds fail cleanly.
void Arm(uint64_t fail_at_op, bool torn = false);

/// Stops injection and counting; clears counters and the down state.
void Disarm();

/// Ops counted since the last Arm().
uint64_t OpsIssued();

/// True once the armed failure has fired.
bool Triggered();

// --- Intercepted operations ------------------------------------------------
// Same contracts as the raw syscalls (errno set on failure). Write loops
// over short writes, so success means the full buffer was written.

ssize_t Write(int fd, const void* buf, size_t n);
int Fsync(int fd);
int Rename(const char* from, const char* to);
int Ftruncate(int fd, off_t len);
int Msync(void* addr, size_t len, int flags);
int Unlink(const char* path);

}  // namespace fault_fs
}  // namespace concealer

#endif  // CONCEALER_STORAGE_FAULT_FS_H_
