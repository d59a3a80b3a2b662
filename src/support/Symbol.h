//===- support/Symbol.h - Interned identifier symbols ----------*- C++ -*-===//
///
/// \file
/// Interned strings. A Symbol is a 32-bit handle into a process-wide intern
/// table; two Symbols compare equal iff their spellings are equal, which
/// makes symbol comparison O(1) throughout the matcher and rewrite engine.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SUPPORT_SYMBOL_H
#define PYPM_SUPPORT_SYMBOL_H

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace pypm {

/// An interned identifier. Value-semantic, 4 bytes, O(1) equality.
///
/// The default-constructed Symbol is the distinguished "invalid" symbol; it
/// is never returned by intern() for any spelling and is usable as a
/// sentinel.
class Symbol {
public:
  Symbol() : Id(0) {}

  /// Interns \p Str and returns its Symbol. Interning the same spelling
  /// twice returns the same Symbol.
  static Symbol intern(std::string_view Str);

  /// Returns a fresh symbol that is guaranteed not to collide with any
  /// previously interned user spelling. The result's spelling is
  /// "<Base>$<n>" for a process-unique n. Used for alpha-renaming binders
  /// when unfolding recursive patterns.
  static Symbol fresh(std::string_view Base);

  /// The spelling this symbol was interned from. Valid for the lifetime of
  /// the process. The invalid symbol stringifies as "<invalid>".
  std::string_view str() const;

  bool isValid() const { return Id != 0; }
  explicit operator bool() const { return isValid(); }

  /// Raw intern-table index. 0 is the invalid symbol. Stable within a
  /// process; used for hashing and dense maps, never persisted (the
  /// serializer writes spellings instead).
  uint32_t rawId() const { return Id; }

  /// Rebuilds a Symbol from a raw id previously obtained via rawId().
  static Symbol fromRaw(uint32_t Id) {
    Symbol S;
    S.Id = Id;
    return S;
  }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  uint32_t Id;
};

/// Binder names minted by one compile (DSL sema, a ModuleBuilder):
/// "<Base>$c<n>" with n counting from 0 per minter. Compiling the same
/// source again mints the same spellings, so a long-running process that
/// compiles rule sets interns no new symbols for them (Symbol::fresh's
/// process-wide counter would intern new ones on every compile). The `$c`
/// suffix cannot be a Symbol::fresh spelling (those end in `$<digits>`),
/// DSL identifiers cannot contain `$`, and one minter never repeats a name,
/// so a minted binder captures nothing within its compile.
class FreshNames {
public:
  Symbol next(std::string_view Base);

private:
  uint32_t Counter = 0;
};

} // namespace pypm

template <> struct std::hash<pypm::Symbol> {
  size_t operator()(pypm::Symbol S) const noexcept {
    return std::hash<uint32_t>()(S.rawId());
  }
};

#endif // PYPM_SUPPORT_SYMBOL_H
