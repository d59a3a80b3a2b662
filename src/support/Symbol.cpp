//===- support/Symbol.cpp - Interned identifier symbols ------------------===//

#include "support/Symbol.h"

#include <cassert>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

using namespace pypm;

namespace {

/// Process-wide intern table. Constructed lazily on first use (function-local
/// static) so there is no static-initialization-order hazard.
///
/// Thread safety: the rewrite engine's parallel discovery phase interns from
/// worker threads (μ-unfold binder freshening, term-attribute keys), so the
/// table is guarded by a shared_mutex — lookups of already-interned
/// spellings take the shared lock, first-time interning upgrades to the
/// exclusive lock. Handed-out string_views stay valid forever: spellings
/// live in a deque that never relocates its elements.
struct InternTable {
  std::shared_mutex Mutex;
  std::deque<std::string> Spellings;
  std::unordered_map<std::string_view, uint32_t> Index;
  uint64_t FreshCounter = 0;

  InternTable() {
    // Reserve id 0 for the invalid symbol.
    Spellings.emplace_back("<invalid>");
  }

  uint32_t intern(std::string_view Str) {
    {
      std::shared_lock<std::shared_mutex> Lock(Mutex);
      if (auto It = Index.find(Str); It != Index.end())
        return It->second;
    }
    std::unique_lock<std::shared_mutex> Lock(Mutex);
    // Re-check: another thread may have interned Str between the locks.
    if (auto It = Index.find(Str); It != Index.end())
      return It->second;
    Spellings.emplace_back(Str);
    uint32_t Id = static_cast<uint32_t>(Spellings.size() - 1);
    Index.emplace(Spellings.back(), Id);
    return Id;
  }
};

InternTable &table() {
  static InternTable Table;
  return Table;
}

} // namespace

Symbol Symbol::intern(std::string_view Str) {
  return Symbol::fromRaw(table().intern(Str));
}

Symbol Symbol::fresh(std::string_view Base) {
  InternTable &T = table();
  // Loop in case a user literally interned "<base>$<n>" already.
  std::unique_lock<std::shared_mutex> Lock(T.Mutex);
  for (;;) {
    std::string Candidate(Base);
    Candidate += '$';
    Candidate += std::to_string(T.FreshCounter++);
    if (T.Index.find(Candidate) != T.Index.end())
      continue;
    T.Spellings.emplace_back(std::move(Candidate));
    uint32_t Id = static_cast<uint32_t>(T.Spellings.size() - 1);
    T.Index.emplace(T.Spellings.back(), Id);
    return Symbol::fromRaw(Id);
  }
}

Symbol FreshNames::next(std::string_view Base) {
  std::string Name(Base);
  Name += "$c";
  Name += std::to_string(Counter++);
  return Symbol::intern(Name);
}

std::string_view Symbol::str() const {
  InternTable &T = table();
  std::shared_lock<std::shared_mutex> Lock(T.Mutex);
  assert(Id < T.Spellings.size() && "symbol from a different process?");
  return T.Spellings[Id];
}
