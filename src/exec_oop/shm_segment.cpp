#include "exec_oop/shm_segment.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <random>
#include <unordered_set>
#include <vector>

namespace icsfuzz::oop {

namespace {

/// Live created-and-not-yet-unlinked segment names, process-wide. The
/// normal lifecycle (destructor / unlink_name) keeps this empty at exit;
/// unlink_all_registered() drains whatever a signal-driven shutdown left.
struct NameRegistry {
  std::mutex mutex;
  std::unordered_set<std::string> names;

  static NameRegistry& instance() {
    static NameRegistry registry;
    return registry;
  }
};

/// Monotonic per-process counter so concurrent workers of one campaign
/// never collide on a name; the pid disambiguates across live processes
/// and the random tag across pid-recycled ones (a SIGKILLed fuzzer leaks
/// its names, and a successor with the recycled pid must not land on
/// them — create() additionally retries on EEXIST).
std::string generate_name() {
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t tag = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  const std::uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  char name[64];
  std::snprintf(name, sizeof(name), "/icsfuzz-%ld-%llx-%llu",
                static_cast<long>(::getpid()),
                static_cast<unsigned long long>(tag),
                static_cast<unsigned long long>(n));
  return name;
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

void ShmSegment::register_name() {
  NameRegistry& registry = NameRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.names.insert(name_);
}

void ShmSegment::forget_name() {
  NameRegistry& registry = NameRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.names.erase(name_);
}

ShmSegment::~ShmSegment() {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (owns_name_ && !name_.empty()) {
    ::shm_unlink(name_.c_str());
    forget_name();
  }
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      name_(std::move(other.name_)),
      owns_name_(other.owns_name_),
      error_(std::move(other.error_)) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.owns_name_ = false;
  other.name_.clear();
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this == &other) return *this;
  if (data_ != nullptr) ::munmap(data_, size_);
  if (owns_name_ && !name_.empty()) {
    ::shm_unlink(name_.c_str());
    forget_name();
  }
  data_ = other.data_;
  size_ = other.size_;
  name_ = std::move(other.name_);
  owns_name_ = other.owns_name_;
  error_ = std::move(other.error_);
  other.data_ = nullptr;
  other.size_ = 0;
  other.owns_name_ = false;
  other.name_.clear();
  return *this;
}

ShmSegment ShmSegment::create(std::size_t size, bool force_anonymous) {
  ShmSegment segment;
  segment.size_ = size;

  if (!force_anonymous) {
    // A few attempts with fresh names: EEXIST means a leaked segment from
    // a killed predecessor (or an astronomically unlucky collision) is
    // squatting on the name — a different name recovers.
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::string name = generate_name();
      const int fd =
          ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
      if (fd < 0) {
        segment.error_ = errno_string("shm_open");
        if (errno == EEXIST) continue;
        break;
      }
      if (::ftruncate(fd, static_cast<off_t>(size)) == 0) {
        void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                              MAP_SHARED, fd, 0);
        ::close(fd);
        if (mapped != MAP_FAILED) {
          segment.data_ = static_cast<std::uint8_t*>(mapped);
          segment.name_ = name;
          segment.owns_name_ = true;
          segment.register_name();
          return segment;
        }
        segment.error_ = errno_string("mmap(shm)");
      } else {
        segment.error_ = errno_string("ftruncate(shm)");
        ::close(fd);
      }
      ::shm_unlink(name.c_str());
      break;
    }
    // Fall through to the anonymous fallback, keeping the shm error so a
    // later "needs a named segment" diagnostic can explain why there is
    // none.
  }

  void* mapped = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    segment.error_ += segment.error_.empty() ? "" : "; ";
    segment.error_ += errno_string("mmap(anonymous)");
    segment.size_ = 0;
    return segment;
  }
  segment.data_ = static_cast<std::uint8_t*>(mapped);
  return segment;
}

void ShmSegment::unlink_name() {
  if (owns_name_ && !name_.empty()) {
    ::shm_unlink(name_.c_str());
    forget_name();
    owns_name_ = false;
  }
}

std::size_t unlink_all_registered() {
  NameRegistry& registry = NameRegistry::instance();
  std::lock_guard<std::mutex> lock(registry.mutex);
  std::size_t unlinked = 0;
  for (const std::string& name : registry.names) {
    if (::shm_unlink(name.c_str()) == 0) ++unlinked;
  }
  registry.names.clear();
  return unlinked;
}

std::size_t sweep_orphans() {
  // The generated names are "/icsfuzz-<pid>-<tag>-<counter>"; /dev/shm
  // lists them without the leading slash. A dead creator pid marks the
  // segment as residue of a killed campaign.
  DIR* dir = ::opendir("/dev/shm");
  if (dir == nullptr) return 0;
  std::vector<std::string> orphans;
  constexpr const char* kPrefix = "icsfuzz-";
  while (const struct dirent* entry = ::readdir(dir)) {
    const char* name = entry->d_name;
    if (std::strncmp(name, kPrefix, std::strlen(kPrefix)) != 0) continue;
    char* end = nullptr;
    const long pid = std::strtol(name + std::strlen(kPrefix), &end, 10);
    if (pid <= 0 || end == nullptr || *end != '-') continue;
    char proc_path[64];
    std::snprintf(proc_path, sizeof(proc_path), "/proc/%ld", pid);
    if (::access(proc_path, F_OK) == 0) continue;  // creator still alive
    orphans.push_back("/" + std::string(name));
  }
  ::closedir(dir);
  std::size_t unlinked = 0;
  for (const std::string& orphan : orphans) {
    if (::shm_unlink(orphan.c_str()) == 0) ++unlinked;
  }
  return unlinked;
}

}  // namespace icsfuzz::oop
