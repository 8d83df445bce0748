// nvlint implementation: lexer, directive scanner, two-pass analyzer.
//
// Pass 1 collects annotation bindings (CCNVM_PERSISTENT identifiers,
// commit-point / requires-barrier / ack functions) and the quoted
// include graph across ALL input files. Pass 2 extracts function
// definitions per file and walks their bodies token-linearly, emitting
// persist-write / barrier / ack events and the N1-N3 diagnostics; N4 is
// a whole-file token scan over the include cone of the deterministic
// executor roots. See docs/LINT.md for the exact event model and the
// documented approximations.

#include "nvlint/nvlint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace ccnvm::nvlint {
namespace {

// ---------------------------------------------------------------- lexer

enum class Tok { kIdent, kNumber, kString, kPunct };

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Waiver {
  std::string id;
  std::string reason;
};

struct Lexed {
  std::vector<Token> tokens;
  std::vector<std::string> includes;           // quoted includes only
  std::map<int, std::vector<Waiver>> waivers;  // target line -> waivers
  std::set<std::string> byte_writers;          // file-scoped raw byte writers
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Multi-character punctuators we must not split (``<=`` read as ``<``
// ``=`` would look like an assignment). Longest-match-first.
const char* const kPuncts3[] = {"<<=", ">>=", "...", "->*"};
const char* const kPuncts2[] = {"::", "->", "++", "--", "<<", ">>", "<=",
                                ">=", "==", "!=", "&&", "||", "+=", "-=",
                                "*=", "/=", "%=", "&=", "|=", "^="};

Lexed lex(const std::string& src) {
  Lexed out;
  const std::size_t n = src.size();
  std::size_t i = 0;
  int line = 1;
  bool at_line_start = true;
  auto peek = [&](std::size_t off) -> char {
    return i + off < n ? src[i + off] : '\0';
  };
  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      while (i < n && src[i] != '\n') ++i;
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      i += 2;
      while (i < n) {
        if (src[i] == '*' && i + 1 < n && src[i + 1] == '/') {
          i += 2;
          break;
        }
        if (src[i] == '\n') ++line;
        ++i;
      }
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor lines are invisible to the analyzer (so #define
      // bodies never register events), except quoted includes, which
      // feed the N4 reachability graph.
      std::size_t j = i + 1;
      while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
      if (src.compare(j, 7, "include") == 0) {
        j += 7;
        while (j < n && (src[j] == ' ' || src[j] == '\t')) ++j;
        if (j < n && src[j] == '"') {
          const std::size_t e = src.find('"', j + 1);
          if (e != std::string::npos) {
            out.includes.push_back(src.substr(j + 1, e - j - 1));
          }
        }
      }
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          i += 2;
          ++line;
          continue;
        }
        if (src[i] == '\n') break;
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (c == 'R' && peek(1) == '"') {
      std::size_t j = i + 2;
      std::string delim;
      while (j < n && src[j] != '(') delim += src[j++];
      const std::string close = ")" + delim + "\"";
      std::size_t e = src.find(close, j);
      const std::size_t stop = e == std::string::npos ? n : e + close.size();
      const int l0 = line;
      for (std::size_t k = i; k < stop; ++k) {
        if (src[k] == '\n') ++line;
      }
      out.tokens.push_back({Tok::kString, "\"\"", l0});
      i = stop;
      continue;
    }
    if (c == '"' || c == '\'') {
      // Literal contents are dropped: a message string mentioning
      // "header" must not look like a flip, and quoted code must not
      // register events.
      const char q = c;
      ++i;
      while (i < n && src[i] != q) {
        if (src[i] == '\\' && i + 1 < n) {
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;
        ++i;
      }
      if (i < n) ++i;
      out.tokens.push_back({Tok::kString, q == '"' ? "\"\"" : "''", line});
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(src[j])) ++j;
      out.tokens.push_back({Tok::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i;
      while (j < n && (ident_char(src[j]) || src[j] == '.' ||
                       (src[j] == '\'' && j + 1 < n && ident_char(src[j + 1])))) {
        ++j;
      }
      out.tokens.push_back({Tok::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    std::string p;
    for (const char* q : kPuncts3) {
      if (src.compare(i, 3, q) == 0) {
        p = q;
        break;
      }
    }
    if (p.empty()) {
      for (const char* q : kPuncts2) {
        if (src.compare(i, 2, q) == 0) {
          p = q;
          break;
        }
      }
    }
    if (p.empty()) p = std::string(1, c);
    out.tokens.push_back({Tok::kPunct, p, line});
    i += p.size();
  }
  return out;
}

// ---------------------------------------------------- comment directives

std::string trim(std::string s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.erase(s.begin());
  }
  while (!s.empty() && (std::isspace(static_cast<unsigned char>(s.back())) != 0)) {
    s.pop_back();
  }
  if (s.size() >= 2 && s.compare(s.size() - 2, 2, "*/") == 0) {
    s.resize(s.size() - 2);
    return trim(s);
  }
  return s;
}

// Parses "name(ID)" directives starting at `pos` (which points at the
// '(' of the directive). Returns the ID and, when a ":" follows, the
// rest of the line as the reason.
bool parse_directive(const std::string& line_text, std::size_t paren,
                     std::string* id, std::string* reason) {
  const std::size_t close = line_text.find(')', paren);
  if (close == std::string::npos) return false;
  *id = trim(line_text.substr(paren + 1, close - paren - 1));
  reason->clear();
  std::size_t j = close + 1;
  while (j < line_text.size() &&
         std::isspace(static_cast<unsigned char>(line_text[j])) != 0) {
    ++j;
  }
  if (j < line_text.size() && line_text[j] == ':') {
    *reason = trim(line_text.substr(j + 1));
  }
  return !id->empty();
}

void scan_directives(const std::string& src, Lexed* out) {
  int line = 1;
  std::size_t pos = 0;
  while (pos < src.size()) {
    std::size_t eol = src.find('\n', pos);
    if (eol == std::string::npos) eol = src.size();
    const std::string l = src.substr(pos, eol - pos);
    std::size_t at = 0;
    while ((at = l.find("nvlint-", at)) != std::string::npos) {
      std::string id;
      std::string reason;
      if (l.compare(at, 18, "nvlint-waive-next(") == 0) {
        if (parse_directive(l, at + 17, &id, &reason)) {
          (*out).waivers[line + 1].push_back({id, reason});
        }
      } else if (l.compare(at, 13, "nvlint-waive(") == 0) {
        if (parse_directive(l, at + 12, &id, &reason)) {
          (*out).waivers[line].push_back({id, reason});
        }
      } else if (l.compare(at, 19, "nvlint-byte-writer(") == 0) {
        if (parse_directive(l, at + 18, &id, &reason)) {
          out->byte_writers.insert(id);
        }
      }
      at += 7;
    }
    pos = eol + 1;
    ++line;
  }
}

// --------------------------------------------------------- annotations

struct Annotations {
  std::map<std::string, bool> persistent;  // name -> declared as raw pointer
  std::set<std::string> commit_points;
  std::set<std::string> barrier_required;
  std::set<std::string> acks;
};

void collect_annotations(const std::vector<Token>& t, Annotations* a) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Tok::kIdent) continue;
    const std::string& w = t[i].text;
    int kind = -1;
    if (w == "CCNVM_PERSISTENT") kind = 0;
    else if (w == "CCNVM_COMMIT_POINT") kind = 1;
    else if (w == "CCNVM_REQUIRES_BARRIER") kind = 2;
    else if (w == "CCNVM_ACK") kind = 3;
    if (kind < 0) continue;
    // The annotated name is the last identifier before the first
    // `(`, `=`, `;` or `{` that follows the macro.
    std::string last;
    bool ptr = false;
    const std::size_t stop = std::min(t.size(), i + 80);
    for (std::size_t j = i + 1; j < stop; ++j) {
      const std::string& x = t[j].text;
      if (x == "(" || x == "=" || x == ";" || x == "{" || x == "}") break;
      if (t[j].kind == Tok::kIdent) last = x;
      if (x == "*") ptr = true;
    }
    if (last.empty()) continue;
    switch (kind) {
      case 0:
        a->persistent[last] = a->persistent[last] || ptr;
        break;
      case 1:
        a->commit_points.insert(last);
        break;
      case 2:
        a->barrier_required.insert(last);
        break;
      default:
        a->acks.insert(last);
        break;
    }
  }
}

// -------------------------------------------------- function extraction

struct FnDef {
  std::string name;
  int line = 0;
  std::size_t body_open = 0;   // index of '{'
  std::size_t body_close = 0;  // index of matching '}'
};

std::size_t match_forward(const std::vector<Token>& t, std::size_t open,
                          const char* o, const char* c) {
  int depth = 0;
  for (std::size_t k = open; k < t.size(); ++k) {
    if (t[k].text == o) ++depth;
    else if (t[k].text == c) {
      --depth;
      if (depth == 0) return k;
    }
  }
  return 0;
}

bool name_is_keyword(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",       "while",    "for",     "switch",        "catch",
      "return",   "sizeof",   "alignof", "alignas",       "decltype",
      "noexcept", "throw",    "new",     "delete",        "static_assert",
      "operator", "typename", "using",   "static_cast",   "dynamic_cast",
      "const_cast", "reinterpret_cast", "assert",         "defined"};
  return kKw.count(s) != 0;
}

bool bad_token_before_name(const std::string& s) {
  static const std::set<std::string> kBad = {
      ".",  "->", "(",  "[",  ",",  "=",   "==", "!=", "<=",  ">=",  "<",
      "+",  "-",  "/",  "%",  "!",  "&&",  "||", "<<", ">>",  "?",   ":",
      "+=", "-=", "*=", "/=", "%=", "&=",  "|=", "^=", "<<=", ">>=",
      "return", "case", "co_return", "co_await", "co_yield", "throw",
      "new", "delete", "else", "do"};
  return kBad.count(s) != 0;
}

std::vector<FnDef> find_defs(const std::vector<Token>& t) {
  std::vector<FnDef> defs;
  for (std::size_t i = 1; i + 1 < t.size(); ++i) {
    if (t[i].text != "(") continue;
    const Token& name = t[i - 1];
    if (name.kind != Tok::kIdent || name_is_keyword(name.text)) continue;
    if (i >= 2 && bad_token_before_name(t[i - 2].text)) continue;
    const std::size_t close = match_forward(t, i, "(", ")");
    if (close == 0) continue;
    // Scan the tokens between the parameter list and a possible body.
    // Qualifiers, trailing returns, attribute macros and ctor-init
    // lists are allowed; `;`, `=` or anything else means "not a
    // definition" (declaration, call expression, ...).
    std::size_t k = close + 1;
    bool ok = true;
    bool found = false;
    int guard = 0;
    while (k < t.size() && guard++ < 4096) {
      const std::string& x = t[k].text;
      if (x == "{") {
        found = true;
        break;
      }
      if (x == ";" || x == "=") {
        ok = false;
        break;
      }
      if (x == "(") {
        const std::size_t m = match_forward(t, k, "(", ")");
        if (m == 0) {
          ok = false;
          break;
        }
        k = m + 1;
        continue;
      }
      if (x == ":") {  // ctor-init list: skip initializers to the body
        ++k;
        while (k < t.size()) {
          const std::string& y = t[k].text;
          if (y == "(") {
            const std::size_t m = match_forward(t, k, "(", ")");
            if (m == 0) break;
            k = m + 1;
            continue;
          }
          if (y == "{") {
            const bool member_init =
                t[k - 1].kind == Tok::kIdent || t[k - 1].text == ">";
            if (member_init) {
              const std::size_t m = match_forward(t, k, "{", "}");
              if (m == 0) break;
              k = m + 1;
              continue;
            }
            found = true;
            break;
          }
          if (y == ";") break;
          ++k;
        }
        break;
      }
      if (t[k].kind == Tok::kIdent || x == "::" || x == "->" || x == "<" ||
          x == ">" || x == "&" || x == "&&" || x == "*" || x == "," ||
          x == "[" || x == "]") {
        ++k;
        continue;
      }
      ok = false;
      break;
    }
    if (!ok || !found || k >= t.size()) continue;
    const std::size_t body_close = match_forward(t, k, "{", "}");
    if (body_close == 0) continue;
    defs.push_back({name.text, name.line, k, body_close});
  }
  return defs;
}

// ------------------------------------------------------------ analysis

struct RawDiag {
  std::string file;
  int line;
  std::string id;
  std::string message;
};

const std::set<std::string>& barrier_calls() {
  static const std::set<std::string> s = {"persist_barrier", "msync", "fsync",
                                          "fdatasync"};
  return s;
}

// Cross-function persist-write knowledge: calls to the Backend/design
// write primitives count as persistent writes in the caller, no matter
// which object they are invoked on.
const std::set<std::string>& builtin_writes() {
  static const std::set<std::string> s = {"write_line",   "write_ecc",
                                          "restore_line", "write_back",
                                          "store_registers"};
  return s;
}

const std::set<std::string>& byte_write_builtins() {
  static const std::set<std::string> s = {"memcpy", "memmove", "memset",
                                          "strcpy", "strncpy", "bcopy",
                                          "bzero"};
  return s;
}

const std::set<std::string>& write_methods() {
  static const std::set<std::string> s = {
      "assign", "clear", "insert",   "emplace", "emplace_back",
      "push_back", "pop_back", "resize", "fill", "erase"};
  return s;
}

const std::set<std::string>& nondet_calls() {
  static const std::set<std::string> s = {
      "rand",    "srand",   "rand_r",       "random",       "srandom",
      "drand48", "lrand48", "mrand48",      "srand48",      "time",
      "clock",   "gettimeofday", "clock_gettime", "timespec_get",
      "getentropy"};
  return s;
}

const std::set<std::string>& assign_ops() {
  static const std::set<std::string> s = {"=",  "+=", "-=", "*=",  "/=", "%=",
                                          "&=", "|=", "^=", "<<=", ">>="};
  return s;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

struct FileCtx {
  const SourceFile* src = nullptr;
  Lexed lexed;
};

// Walks one function body token-linearly, maintaining the unbarriered
// persistent-write counter (N1) and the commit-point flip ordering (N2),
// and reporting raw writes into persistent regions (N3).
class BodyWalker {
 public:
  BodyWalker(const FileCtx& ctx, const FnDef& fn, const Annotations& ann,
             const Config& config, std::vector<RawDiag>* out)
      : ctx_(ctx),
        fn_(fn),
        ann_(ann),
        config_(config),
        out_(out),
        is_commit_(ann.commit_points.count(fn.name) != 0),
        needs_barrier_(ann.barrier_required.count(fn.name) != 0) {}

  void run() {
    const std::vector<Token>& t = ctx_.lexed.tokens;
    std::size_t stmt_start = fn_.body_open + 1;
    int paren_depth = 0;
    for (std::size_t k = stmt_start; k < fn_.body_close; ++k) {
      const std::string& x = t[k].text;
      if (x == "(") {
        ++paren_depth;
      } else if (x == ")") {
        if (paren_depth > 0) --paren_depth;
      } else if (paren_depth == 0 && (x == ";" || x == "{" || x == "}")) {
        statement(stmt_start, k);
        stmt_start = k + 1;
      }
    }
    statement(stmt_start, fn_.body_close);
    if (needs_barrier_ && pending_ > 0) {
      diag(t[fn_.body_close].line, "N1",
           "'" + fn_.name + "' is CCNVM_REQUIRES_BARRIER but reaches its end "
           "with " + std::to_string(pending_) +
           " unbarriered persistent write(s)");
    }
    if (is_commit_ && flip_count_ == 0) {
      diag(fn_.line, "N2",
           "CCNVM_COMMIT_POINT '" + fn_.name +
           "' performs no header-flip persistent write");
    }
  }

 private:
  void diag(int line, const char* id, std::string msg) {
    out_->push_back({ctx_.src->path, line, id, std::move(msg)});
  }

  std::string stmt_text(std::size_t s, std::size_t e) const {
    const std::vector<Token>& t = ctx_.lexed.tokens;
    std::string text;
    for (std::size_t k = s; k < e; ++k) {
      text += t[k].text;
      text += ' ';
    }
    return lower(text);
  }

  bool is_flip(const std::string& lowered) const {
    for (const std::string& m : config_.flip_markers) {
      if (lowered.find(m) != std::string::npos) return true;
    }
    return false;
  }

  void persist_write(int line, const std::string& lowered_stmt) {
    ++pending_;
    if (!is_commit_) return;
    if (is_flip(lowered_stmt)) {
      ++flip_count_;
    } else if (flip_count_ > 0) {
      diag(line, "N2",
           "persistent write after the header flip in CCNVM_COMMIT_POINT '" +
           fn_.name + "'");
    }
  }

  // First-argument span of the call whose name token sits at `k`
  // (t[k+1] == "("): does it mention a CCNVM_PERSISTENT identifier?
  std::string persistent_in_first_arg(std::size_t k, std::size_t e) const {
    const std::vector<Token>& t = ctx_.lexed.tokens;
    int depth = 1;
    for (std::size_t m = k + 2; m < e; ++m) {
      const std::string& x = t[m].text;
      if (x == "(" || x == "[" || x == "{") {
        ++depth;
      } else if (x == ")" || x == "]" || x == "}") {
        if (--depth == 0) break;
      } else if (x == "," && depth == 1) {
        break;
      } else if (t[m].kind == Tok::kIdent && ann_.persistent.count(x) != 0) {
        return x;
      }
    }
    return "";
  }

  void call(std::size_t k, std::size_t s, std::size_t e) {
    const std::vector<Token>& t = ctx_.lexed.tokens;
    const std::string& name = t[k].text;
    const int line = t[k].line;
    if (barrier_calls().count(name) != 0) {
      pending_ = 0;
      return;
    }
    if (ann_.acks.count(name) != 0) {
      if (pending_ > 0) {
        diag(line, "N1",
             "CCNVM_ACK '" + name + "' reached with " +
             std::to_string(pending_) + " unbarriered persistent write(s)");
      }
      return;
    }
    if (builtin_writes().count(name) != 0) {
      persist_write(line, stmt_text(s, e));
      return;
    }
    if (byte_write_builtins().count(name) != 0 ||
        ctx_.lexed.byte_writers.count(name) != 0) {
      const std::string hit = persistent_in_first_arg(k, e);
      if (!hit.empty()) {
        diag(line, "N3",
             "raw byte write ('" + name + "') into persistent region '" + hit +
             "' bypasses the line-granular Backend API");
        ++pending_;
      }
    }
  }

  void store(std::size_t s, std::size_t op, std::size_t e) {
    const std::vector<Token>& t = ctx_.lexed.tokens;
    // LHS = [s, op). Find the first persistent identifier and whether the
    // store goes through a cast or a raw pointer.
    std::string hit;
    bool has_cast = false;
    bool has_deref = false;
    for (std::size_t k = s; k < op; ++k) {
      const std::string& x = t[k].text;
      if (t[k].kind == Tok::kIdent) {
        if (x == "reinterpret_cast") has_cast = true;
        if (hit.empty() && ann_.persistent.count(x) != 0) hit = x;
      } else if (x == "*" || x == "[") {
        has_deref = true;
      }
    }
    if (hit.empty()) return;
    const int line = t[op].line;
    if (has_cast) {
      diag(line, "N3", "pointer-cast store into persistent state '" + hit +
                       "' bypasses the line-granular Backend API");
      ++pending_;
      return;
    }
    const auto it = ann_.persistent.find(hit);
    if (it != ann_.persistent.end() && it->second && has_deref) {
      diag(line, "N3", "raw store through persistent pointer '" + hit +
                       "' bypasses the line-granular Backend API");
      ++pending_;
      return;
    }
    persist_write(line, stmt_text(s, e));
  }

  void statement(std::size_t s, std::size_t e) {
    if (s >= e) return;
    const std::vector<Token>& t = ctx_.lexed.tokens;
    // Locate the first top-level assignment in the statement (depth
    // counted from the statement start, so `for (i = 0; ...)` inits and
    // call arguments do not register).
    std::size_t assign_pos = 0;
    int depth = 0;
    for (std::size_t k = s; k < e; ++k) {
      const std::string& x = t[k].text;
      if (x == "(") {
        ++depth;
      } else if (x == ")") {
        if (depth > 0) --depth;
      } else if (depth == 0 && assign_pos == 0 && t[k].kind == Tok::kPunct &&
                 assign_ops().count(x) != 0) {
        assign_pos = k;
      }
    }
    for (std::size_t k = s; k < e; ++k) {
      const Token& tok = t[k];
      if (tok.kind == Tok::kIdent) {
        if (tok.text == "return") {
          if (needs_barrier_ && pending_ > 0) {
            diag(tok.line, "N1",
                 "'" + fn_.name +
                 "' is CCNVM_REQUIRES_BARRIER but returns with " +
                 std::to_string(pending_) +
                 " unbarriered persistent write(s)");
          }
          continue;
        }
        if (k + 1 < e && t[k + 1].text == "(") {
          call(k, s, e);
        }
        // Mutating method call on a persistent object:
        // `registers_.assign(...)`.
        if (ann_.persistent.count(tok.text) != 0 && k + 3 < e &&
            (t[k + 1].text == "." || t[k + 1].text == "->") &&
            t[k + 2].kind == Tok::kIdent &&
            write_methods().count(t[k + 2].text) != 0 &&
            t[k + 3].text == "(") {
          persist_write(tok.line, stmt_text(s, e));
        }
        continue;
      }
      if (assign_pos != 0 && k == assign_pos) {
        store(s, k, e);
        continue;
      }
      if (tok.text == "++" || tok.text == "--") {
        const bool next_p = k + 1 < e && t[k + 1].kind == Tok::kIdent &&
                            ann_.persistent.count(t[k + 1].text) != 0;
        const bool prev_p = k > s && t[k - 1].kind == Tok::kIdent &&
                            ann_.persistent.count(t[k - 1].text) != 0;
        if (next_p || prev_p) persist_write(tok.line, stmt_text(s, e));
      }
    }
  }

  const FileCtx& ctx_;
  const FnDef& fn_;
  const Annotations& ann_;
  const Config& config_;
  std::vector<RawDiag>* out_;
  const bool is_commit_;
  const bool needs_barrier_;
  int pending_ = 0;
  int flip_count_ = 0;
};

// N4: files reachable (via quoted includes) from the deterministic
// executor roots must be free of nondeterminism sources.
std::set<std::size_t> n4_reachable(const std::vector<FileCtx>& ctx,
                                   const Config& config) {
  std::set<std::size_t> reach;
  std::vector<std::size_t> queue;
  for (std::size_t i = 0; i < ctx.size(); ++i) {
    const std::string p = lower(ctx[i].src->path);
    for (const std::string& root : config.n4_roots) {
      if (p.find(root) != std::string::npos) {
        reach.insert(i);
        queue.push_back(i);
        break;
      }
    }
  }
  while (!queue.empty()) {
    const std::size_t cur = queue.back();
    queue.pop_back();
    for (const std::string& inc : ctx[cur].lexed.includes) {
      for (std::size_t i = 0; i < ctx.size(); ++i) {
        if (reach.count(i) != 0) continue;
        const std::string& p = ctx[i].src->path;
        const bool match =
            p == inc || (p.size() > inc.size() &&
                         p.compare(p.size() - inc.size() - 1, 1, "/") == 0 &&
                         p.compare(p.size() - inc.size(), inc.size(), inc) == 0);
        if (match) {
          reach.insert(i);
          queue.push_back(i);
        }
      }
    }
  }
  return reach;
}

void n4_scan(const FileCtx& ctx, std::vector<RawDiag>* out) {
  const std::vector<Token>& t = ctx.lexed.tokens;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::kIdent) continue;
    const std::string& w = t[k].text;
    const std::string prev = k > 0 ? t[k - 1].text : "";
    if (w == "random_device") {
      out->push_back({ctx.src->path, t[k].line, "N4",
                      "'std::random_device' is a nondeterminism source in the "
                      "deterministic-executor include cone"});
      continue;
    }
    if (w == "now" && prev == "::") {
      out->push_back({ctx.src->path, t[k].line, "N4",
                      "'::now()' (wall/steady clock) is a nondeterminism "
                      "source in the deterministic-executor include cone"});
      continue;
    }
    if (nondet_calls().count(w) != 0 && k + 1 < t.size() &&
        t[k + 1].text == "(" && prev != "." && prev != "->") {
      out->push_back({ctx.src->path, t[k].line, "N4",
                      "'" + w + "()' is a nondeterminism source in the "
                      "deterministic-executor include cone"});
    }
  }
}

bool diag_less(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.line != b.line) return a.line < b.line;
  if (a.id != b.id) return a.id < b.id;
  return a.message < b.message;
}

}  // namespace

Report analyze(const std::vector<SourceFile>& files, const Config& config) {
  std::vector<FileCtx> ctx(files.size());
  Annotations ann;
  for (std::size_t i = 0; i < files.size(); ++i) {
    ctx[i].src = &files[i];
    ctx[i].lexed = lex(files[i].content);
    scan_directives(files[i].content, &ctx[i].lexed);
    collect_annotations(ctx[i].lexed.tokens, &ann);
  }

  std::vector<RawDiag> raw;
  for (const FileCtx& c : ctx) {
    for (const FnDef& fn : find_defs(c.lexed.tokens)) {
      BodyWalker(c, fn, ann, config, &raw).run();
    }
  }
  for (const std::size_t i : n4_reachable(ctx, config)) {
    n4_scan(ctx[i], &raw);
  }

  // Apply waivers. A waiver with a reason suppresses the diagnostic
  // (counted as waived); a waiver WITHOUT a reason also suppresses it
  // but surfaces a W0 violation at the same line — waivers must argue.
  Report report;
  report.files_analyzed = files.size();
  std::map<std::string, const Lexed*> by_path;
  for (const FileCtx& c : ctx) by_path[c.src->path] = &c.lexed;
  for (const RawDiag& d : raw) {
    const Lexed* lx = by_path[d.file];
    const Waiver* hit = nullptr;
    const auto it = lx->waivers.find(d.line);
    if (it != lx->waivers.end()) {
      for (const Waiver& w : it->second) {
        if (w.id == d.id || w.id == "*") {
          hit = &w;
          break;
        }
      }
    }
    Diagnostic out{d.file, d.line, d.id, d.message, false};
    if (hit != nullptr) {
      out.waived = true;
      if (hit->reason.empty()) {
        report.diagnostics.push_back(
            {d.file, d.line, "W0",
             "nvlint-waive(" + d.id + ") without a justification — write "
             "'nvlint-waive(" + d.id + "): reason'",
             false});
      }
    }
    report.diagnostics.push_back(std::move(out));
  }
  std::sort(report.diagnostics.begin(), report.diagnostics.end(), diag_less);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.waived) ++report.waived;
    else ++report.violations;
  }
  return report;
}

std::vector<SourceFile> load_tree(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<std::string> found;
  auto wants = [](const fs::path& p) {
    const std::string e = p.extension().string();
    return e == ".h" || e == ".hpp" || e == ".cc" || e == ".cpp";
  };
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && wants(it->path())) {
          found.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      found.push_back(fs::path(path).generic_string());
    }
  }
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  std::vector<SourceFile> files;
  files.reserve(found.size());
  for (const std::string& p : found) {
    std::ifstream in(p, std::ios::binary);
    if (!in) continue;
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back({p, ss.str()});
  }
  return files;
}

int run_lint(const std::vector<std::string>& paths, const Config& config,
             std::FILE* out) {
  const std::vector<SourceFile> files = load_tree(paths);
  if (files.empty()) {
    std::fprintf(out, "nvlint: no .h/.hpp/.cc/.cpp files under the given "
                      "path(s)\n");
    return 2;
  }
  const Report report = analyze(files, config);
  for (const Diagnostic& d : report.diagnostics) {
    if (d.waived) continue;
    std::fprintf(out, "%s:%d: [%s] %s\n", d.file.c_str(), d.line,
                 d.id.c_str(), d.message.c_str());
  }
  std::fprintf(out, "nvlint: checked %zu file(s): %zu violation(s), %zu "
                    "waived\n",
               report.files_analyzed, report.violations, report.waived);
  return report.violations > 0 ? 1 : 0;
}

namespace {

std::vector<std::pair<int, std::string>> parse_expects(
    const std::string& src) {
  std::vector<std::pair<int, std::string>> out;
  int line = 1;
  std::size_t pos = 0;
  while (pos < src.size()) {
    std::size_t eol = src.find('\n', pos);
    if (eol == std::string::npos) eol = src.size();
    const std::string l = src.substr(pos, eol - pos);
    std::size_t at = 0;
    while ((at = l.find("nvlint-expect(", at)) != std::string::npos) {
      std::string id;
      std::string reason;
      if (parse_directive(l, at + 13, &id, &reason)) {
        out.emplace_back(line, id);
      }
      at += 14;
    }
    pos = eol + 1;
    ++line;
  }
  return out;
}

}  // namespace

int run_corpus(const std::string& dir, const Config& config, std::FILE* out) {
  namespace fs = std::filesystem;
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string base = it->path().filename().string();
    if (it->path().extension() == ".cpp" &&
        (base.rfind("good_", 0) == 0 || base.rfind("bad_", 0) == 0)) {
      names.push_back(it->path().generic_string());
    }
  }
  if (names.empty()) {
    std::fprintf(out, "nvlint: no good_*.cpp / bad_*.cpp corpus files in %s\n",
                 dir.c_str());
    return 2;
  }
  std::sort(names.begin(), names.end());
  std::size_t failures = 0;
  for (const std::string& path : names) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const SourceFile file{path, ss.str()};
    const std::string base = fs::path(path).filename().string();
    const bool is_bad = base.rfind("bad_", 0) == 0;

    const Report report = analyze({file}, config);
    std::vector<std::pair<int, std::string>> got;
    for (const Diagnostic& d : report.diagnostics) {
      if (!d.waived) got.emplace_back(d.line, d.id);
    }
    std::vector<std::pair<int, std::string>> want =
        is_bad ? parse_expects(file.content)
               : std::vector<std::pair<int, std::string>>{};
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());

    std::vector<std::string> problems;
    if (is_bad && want.empty()) {
      problems.push_back("bad_ corpus file has no nvlint-expect(ID) marker");
    }
    for (const auto& w : want) {
      if (std::find(got.begin(), got.end(), w) == got.end()) {
        problems.push_back("expected [" + w.second + "] at line " +
                           std::to_string(w.first) + ", not produced");
      }
    }
    for (const auto& g : got) {
      if (std::find(want.begin(), want.end(), g) == want.end()) {
        problems.push_back("unexpected [" + g.second + "] at line " +
                           std::to_string(g.first));
      }
    }
    if (problems.empty()) {
      std::fprintf(out, "PASS %s (%zu diagnostic(s))\n", base.c_str(),
                   got.size());
    } else {
      ++failures;
      std::fprintf(out, "FAIL %s\n", base.c_str());
      for (const std::string& p : problems) {
        std::fprintf(out, "  %s\n", p.c_str());
      }
    }
  }
  std::fprintf(out, "nvlint corpus: %zu file(s), %zu failure(s)\n",
               names.size(), failures);
  return failures > 0 ? 1 : 0;
}

}  // namespace ccnvm::nvlint
