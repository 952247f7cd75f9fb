// Minimal mock of the std surface tools/astlint.py inspects. Fixture TUs
// are parsed with -nostdinc/-nostdinc++ so they are hermetic (no dependence
// on whatever system headers the analyzing machine has) and fast; this
// header provides just enough of the real declarations for the analyzer's
// canonical-type and namespace-ancestry checks to behave as they do against
// the real standard library. Keep it free of rule violations: findings in
// this header would leak into every fixture's golden file.

#ifndef TESTS_ASTLINT_FIXTURES_STD_MOCK_H_
#define TESTS_ASTLINT_FIXTURES_STD_MOCK_H_

// Global-namespace C entry points (the analyzer accepts both ::rand and
// std::rand spellings).
long time(long*);
int rand();
struct timeval {
  long tv_sec;
  long tv_usec;
};
int gettimeofday(timeval*, void*);

namespace std {

using size_t = unsigned long;
using time_t = long;

template <class T>
struct allocator {};
template <class T>
struct less {};
template <class T>
struct hash {};
template <class T>
struct equal_to {};

template <class K, class V>
struct pair {
  K first;
  V second;
};

template <class T>
struct mock_iterator {
  T* p = nullptr;
  T& operator*() const { return *p; }
  mock_iterator& operator++() { return *this; }
  bool operator!=(const mock_iterator& o) const { return p != o.p; }
};

template <class K, class V, class H = hash<K>, class E = equal_to<K>,
          class A = allocator<pair<const K, V>>>
class unordered_map {
 public:
  using value_type = pair<const K, V>;
  using iterator = mock_iterator<value_type>;
  using const_iterator = mock_iterator<value_type>;
  iterator begin() { return {}; }
  iterator end() { return {}; }
  const_iterator begin() const { return {}; }
  const_iterator end() const { return {}; }
  iterator find(const K&) { return {}; }
  const_iterator find(const K&) const { return {}; }
  size_t count(const K&) const { return 0; }
  V& operator[](const K&);
};

template <class K, class H = hash<K>, class E = equal_to<K>,
          class A = allocator<K>>
class unordered_set {
 public:
  using value_type = K;
  using iterator = mock_iterator<K>;
  using const_iterator = mock_iterator<K>;
  iterator begin() { return {}; }
  iterator end() { return {}; }
  const_iterator begin() const { return {}; }
  const_iterator end() const { return {}; }
  iterator find(const K&) { return {}; }
  size_t count(const K&) const { return 0; }
};

template <class K, class V, class C = less<K>,
          class A = allocator<pair<const K, V>>>
class map {
 public:
  using value_type = pair<const K, V>;
  using iterator = mock_iterator<value_type>;
  using const_iterator = mock_iterator<value_type>;
  iterator begin() { return {}; }
  iterator end() { return {}; }
  const_iterator begin() const { return {}; }
  const_iterator end() const { return {}; }
  iterator find(const K&) { return {}; }
  const_iterator find(const K&) const { return {}; }
  size_t count(const K&) const { return 0; }
  V& operator[](const K&);
};

template <class K, class C = less<K>, class A = allocator<K>>
class set {
 public:
  using value_type = K;
  using iterator = mock_iterator<K>;
  iterator begin() { return {}; }
  iterator end() { return {}; }
  size_t count(const K&) const { return 0; }
};

template <class T, class C = less<T>>
class priority_queue {
 public:
  void push(const T&);
  const T& top() const;
  void pop();
};

namespace chrono {

struct mock_duration {
  long ticks = 0;
  long count() const { return ticks; }
  mock_duration operator-(const mock_duration& o) const {
    return {ticks - o.ticks};
  }
};

struct steady_clock {
  using time_point = mock_duration;
  static time_point now();
};
struct system_clock {
  using time_point = mock_duration;
  static time_point now();
};
struct high_resolution_clock {
  using time_point = mock_duration;
  static time_point now();
};

}  // namespace chrono

class random_device {
 public:
  unsigned operator()();
};

class mt19937 {
 public:
  explicit mt19937(unsigned seed);
  unsigned operator()();
};

time_t time(time_t*);
int rand();
void srand(unsigned);

}  // namespace std

#endif  // TESTS_ASTLINT_FIXTURES_STD_MOCK_H_
