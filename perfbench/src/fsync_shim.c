/* Counted, non-flushing fsync/fdatasync.
 *
 * The service acks an event only after fsync returns. On a shared disk
 * that barrier costs 80-150 us and drifts by ~2x within minutes, which
 * would swamp every serve metric; on tmpfs it costs ~1 us. The benchmark
 * may only write inside its own checkout, which is not a tmpfs, so this
 * shim gives the journal tmpfs semantics instead: the call is counted
 * and returns success without flushing. Every barrier the program asks
 * for is still counted (serve.journal.fsyncs_per_event).
 *
 * Linked into provbench and provbench_traced, the definitions below take
 * precedence over libc's for the in-process service. Built as fsync_shim.so it is
 * preloaded into `provmark cluster`; the router forks its members, so
 * the shared counter mapping is inherited by every member. The counter
 * file is named by PROVBENCH_FSYNC_COUNTER (two little-endian u64s:
 * fsync calls, fdatasync calls); without it each process counts alone.
 */
#include <fcntl.h>
#include <stdint.h>
#include <stdlib.h>
#include <sys/mman.h>
#include <unistd.h>

static uint64_t local_counts[2];
static uint64_t* counts = local_counts;

__attribute__((constructor)) static void fsync_shim_init(void) {
#ifdef FSYNC_SHIM_PRELOAD
  const char* path = getenv("PROVBENCH_FSYNC_COUNTER");
  if (path == NULL) return;
  int fd = open(path, O_RDWR | O_CLOEXEC);
  if (fd < 0) return;
  void* mapped =
      mmap(NULL, sizeof local_counts, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mapped != MAP_FAILED) counts = (uint64_t*)mapped;
#endif
}

int fsync(int fd) {
  (void)fd;
  __atomic_fetch_add(&counts[0], 1, __ATOMIC_RELAXED);
  return 0;
}

int fdatasync(int fd) {
  (void)fd;
  __atomic_fetch_add(&counts[1], 1, __ATOMIC_RELAXED);
  return 0;
}

/* fsync + fdatasync calls made by this process so far. */
uint64_t provbench_fsync_calls(void) {
  return __atomic_load_n(&counts[0], __ATOMIC_RELAXED) +
         __atomic_load_n(&counts[1], __ATOMIC_RELAXED);
}
