/* CPU-time stack sampler, loaded with LD_PRELOAD into an unmodified
 * binary (for hosts without perf):
 *
 *   SAMPLER_OUT=prof.txt LD_PRELOAD=libparcel_sampler.so ./parcel_bench ...
 *   python3 tools/sampler/fold.py ./parcel_bench prof.txt
 *
 * An ITIMER_PROF timer (every 4 ms of process CPU time, the kernel's
 * tick, which caps the rate anyway) raises SIGPROF; the handler stores
 * backtrace() of the interrupted thread in a static buffer. At exit the
 * library writes /proc/self/maps and then one line of hex return
 * addresses per sample to $SAMPLER_OUT, its only setting. Without
 * SAMPLER_OUT it does nothing. */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>

enum { kDepth = 64, kMaxSamples = 50000, kIntervalUs = 4000 };

static void* g_frames[kMaxSamples][kDepth];
static int g_depth[kMaxSamples];
static int g_samples;
static int g_dropped;
static const char* g_out;

static void on_prof(int sig) {
  (void)sig;
  int slot = __atomic_fetch_add(&g_samples, 1, __ATOMIC_RELAXED);
  if (slot >= kMaxSamples) {
    __atomic_fetch_add(&g_dropped, 1, __ATOMIC_RELAXED);
    return;
  }
  g_depth[slot] = backtrace(g_frames[slot], kDepth);
}

static void set_timer(long interval_us) {
  struct itimerval it;
  memset(&it, 0, sizeof it);
  it.it_interval.tv_sec = interval_us / 1000000;
  it.it_interval.tv_usec = interval_us % 1000000;
  it.it_value = it.it_interval;
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((constructor)) static void sampler_start(void) {
  g_out = getenv("SAMPLER_OUT");
  if (g_out == NULL || g_out[0] == '\0') return;
  /* backtrace() loads the unwinder on first use, which is not safe inside
   * a signal handler: warm it up here. */
  void* warm[4];
  (void)backtrace(warm, 4);
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_prof;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  set_timer(kIntervalUs);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (g_out == NULL || g_out[0] == '\0') return;
  set_timer(0);
  signal(SIGPROF, SIG_IGN);
  FILE* out = fopen(g_out, "w");
  if (out == NULL) {
    perror("sampler: SAMPLER_OUT");
    return;
  }
  FILE* maps = fopen("/proc/self/maps", "r");
  char line[4096];
  while (maps != NULL && fgets(line, sizeof line, maps) != NULL) {
    fputs(line, out);
  }
  if (maps != NULL) fclose(maps);
  int n = g_samples < kMaxSamples ? g_samples : kMaxSamples;
  fprintf(out, "--- samples %d dropped %d\n", n, g_dropped);
  for (int s = 0; s < n; ++s) {
    for (int f = 0; f < g_depth[s]; ++f) {
      fprintf(out, f == 0 ? "%p" : " %p", g_frames[s][f]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
