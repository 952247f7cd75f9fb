// PC-sampling profiler, loaded with LD_PRELOAD into any simulator binary:
//
//   LD_PRELOAD=build/tools/libpcsample.so TFC_PCSAMPLE_OUT=prof.txt <command>
//   python3 tools/pcsample_report.py prof.txt
//
// A CLOCK_MONOTONIC POSIX timer raises SIGPROF 10,000 times per second; the
// handler stores the interrupted program counter in a preallocated buffer.
// At exit the library writes the process's memory map and a (pc, count)
// table to TFC_PCSAMPLE_OUT (default pcsample.<pid>.txt; "%p" in the name is
// replaced by the pid), which tools/pcsample_report.py symbolizes with nm
// and addr2line.
//
// The simulator needs no hooks: the sampler sees every instruction, including
// the code between the Profiler's sites. It is built with plain flags and
// linked into nothing. Forked children inherit the handler but not the
// timer, so they take no samples and write nothing.

#include <signal.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr long kHz = 10000;  // 100 µs period: ~10k samples per second of run
constexpr size_t kCapacity = size_t{1} << 23;  // 8M samples: ~14 min at kHz

uint64_t* g_samples = nullptr;
size_t g_count = 0;  // updated from the signal handler with atomic builtins
size_t g_dropped = 0;
pid_t g_owner = 0;
timer_t g_timer;

uint64_t InterruptedPc(void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  return static_cast<uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<uint64_t>(uc->uc_mcontext.pc);
#else
#error "pcsample: unsupported architecture"
#endif
}

void OnSample(int, siginfo_t*, void* context) {
  const size_t i = __atomic_fetch_add(&g_count, 1, __ATOMIC_RELAXED);
  if (i < kCapacity) {
    g_samples[i] = InterruptedPc(context);
  } else {
    __atomic_fetch_add(&g_dropped, 1, __ATOMIC_RELAXED);
  }
}

std::string OutputPath() {
  const char* env = std::getenv("TFC_PCSAMPLE_OUT");
  std::string path = env != nullptr && *env != '\0' ? env : "pcsample.%p.txt";
  const size_t at = path.find("%p");
  if (at != std::string::npos) {
    path.replace(at, 2, std::to_string(getpid()));
  }
  return path;
}

__attribute__((constructor)) void Start() {
  void* buf = mmap(nullptr, kCapacity * sizeof(uint64_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) {
    std::perror("pcsample: mmap");
    return;
  }
  g_samples = static_cast<uint64_t*>(buf);

  struct sigaction sa = {};
  sa.sa_sigaction = OnSample;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    std::perror("pcsample: sigaction");
    return;
  }
  struct sigevent sev = {};
  sev.sigev_notify = SIGEV_SIGNAL;
  sev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    std::perror("pcsample: timer_create");
    return;
  }
  struct itimerspec its = {};
  its.it_interval.tv_nsec = 1000000000L / kHz;
  its.it_value = its.it_interval;
  if (timer_settime(g_timer, 0, &its, nullptr) != 0) {
    std::perror("pcsample: timer_settime");
    timer_delete(g_timer);
    return;
  }
  g_owner = getpid();
}

__attribute__((destructor)) void Finish() {
  if (g_owner == 0 || g_owner != getpid()) {
    return;
  }
  timer_delete(g_timer);
  const size_t n = std::min(__atomic_load_n(&g_count, __ATOMIC_RELAXED), kCapacity);
  std::sort(g_samples, g_samples + n);

  const std::string path = OutputPath();
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror("pcsample: open output");
    return;
  }
  std::fprintf(out, "# pcsample v1 hz=%ld samples=%zu dropped=%zu\n", kHz, n,
               __atomic_load_n(&g_dropped, __ATOMIC_RELAXED));
  std::fprintf(out, "maps\n");
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  std::fprintf(out, "samples\n");
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && g_samples[j] == g_samples[i]) {
      ++j;
    }
    std::fprintf(out, "%llx %zu\n", static_cast<unsigned long long>(g_samples[i]), j - i);
    i = j;
  }
  std::fclose(out);
  std::fprintf(stderr, "pcsample: %zu samples -> %s\n", n, path.c_str());
}

}  // namespace
