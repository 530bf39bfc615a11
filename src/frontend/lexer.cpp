#include "frontend/lexer.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>

namespace pods::fe {

const char* tokName(Tok t) {
  switch (t) {
    case Tok::IntLit: return "integer literal";
    case Tok::RealLit: return "real literal";
    case Tok::Ident: return "identifier";
    case Tok::KwDef: return "'def'";
    case Tok::KwInline: return "'inline'";
    case Tok::KwLet: return "'let'";
    case Tok::KwNext: return "'next'";
    case Tok::KwReturn: return "'return'";
    case Tok::KwFor: return "'for'";
    case Tok::KwTo: return "'to'";
    case Tok::KwDownto: return "'downto'";
    case Tok::KwCarry: return "'carry'";
    case Tok::KwYield: return "'yield'";
    case Tok::KwLoop: return "'loop'";
    case Tok::KwWhile: return "'while'";
    case Tok::KwIf: return "'if'";
    case Tok::KwThen: return "'then'";
    case Tok::KwElse: return "'else'";
    case Tok::KwInt: return "'int'";
    case Tok::KwReal: return "'real'";
    case Tok::KwArray: return "'array'";
    case Tok::KwMatrix: return "'matrix'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Comma: return "','";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Arrow: return "'->'";
    case Tok::Assign: return "'='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
    case Tok::EqEq: return "'=='";
    case Tok::NotEq: return "'!='";
    case Tok::AndAnd: return "'&&'";
    case Tok::OrOr: return "'||'";
    case Tok::Bang: return "'!'";
    case Tok::Eof: return "end of input";
  }
  return "?";
}

namespace {

/// The keyword `s` spells, or Tok::Ident. Dispatches on the length, then
/// compares against the few keywords of that length: no hashing.
Tok keywordOf(std::string_view s) {
  struct Kw {
    std::string_view text;
    Tok kind;
  };
  static constexpr Kw k2[] = {{"to", Tok::KwTo}, {"if", Tok::KwIf}};
  static constexpr Kw k3[] = {
      {"def", Tok::KwDef}, {"let", Tok::KwLet}, {"for", Tok::KwFor},
      {"int", Tok::KwInt}};
  static constexpr Kw k4[] = {
      {"next", Tok::KwNext}, {"loop", Tok::KwLoop}, {"then", Tok::KwThen},
      {"else", Tok::KwElse}, {"real", Tok::KwReal}};
  static constexpr Kw k5[] = {
      {"carry", Tok::KwCarry}, {"yield", Tok::KwYield},
      {"while", Tok::KwWhile}, {"array", Tok::KwArray}};
  static constexpr Kw k6[] = {
      {"inline", Tok::KwInline}, {"return", Tok::KwReturn},
      {"downto", Tok::KwDownto}, {"matrix", Tok::KwMatrix}};
  auto find = [&](const auto& table) {
    for (const Kw& k : table)
      if (k.text == s) return k.kind;
    return Tok::Ident;
  };
  switch (s.size()) {
    case 2: return find(k2);
    case 3: return find(k3);
    case 4: return find(k4);
    case 5: return find(k5);
    case 6: return find(k6);
    default: return Tok::Ident;
  }
}

// ASCII classes; unlike <cctype> they do not consult the locale.
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '$';
}
bool isIdentChar(char c) { return isIdentStart(c) || isDigit(c); }

class Lexer {
 public:
  Lexer(std::string_view src, DiagSink& diags) : src_(src), diags_(diags) {}

  std::vector<Token> run() {
    std::vector<Token> out;
    out.reserve(src_.size() / 3 + 1);  // IdLite sources average > 3 bytes a token
    for (;;) {
      Token t = next();
      bool eof = t.kind == Tok::Eof;
      out.push_back(std::move(t));
      if (eof) break;
    }
    return out;
  }

 private:
  char peek(int ahead = 0) const {
    std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < src_.size() ? src_[i] : '\0';
  }
  char advance() {
    char c = src_[pos_++];
    if (c == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    return c;
  }
  bool atEnd() const { return pos_ >= src_.size(); }
  SrcLoc here() const { return {line_, col_}; }

  void skipTrivia() {
    for (;;) {
      if (atEnd()) return;
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        SrcLoc start = here();
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/')) advance();
        if (atEnd()) {
          diags_.error(start, "unterminated block comment");
          return;
        }
        advance();
        advance();
      } else {
        return;
      }
    }
  }

  Token make(Tok kind, SrcLoc loc) {
    Token t;
    t.kind = kind;
    t.loc = loc;
    return t;
  }

  Token next() {
    skipTrivia();
    SrcLoc loc = here();
    if (atEnd()) return make(Tok::Eof, loc);
    char c = advance();

    if (isDigit(c)) return number(loc);
    if (isIdentStart(c)) {
      const std::size_t start = pos_ - 1;
      while (isIdentChar(peek())) advance();
      const std::string_view text = src_.substr(start, pos_ - start);
      const Tok kind = keywordOf(text);
      Token t = make(kind, loc);
      if (kind == Tok::Ident) t.text = text;
      return t;
    }

    switch (c) {
      case '(': return make(Tok::LParen, loc);
      case ')': return make(Tok::RParen, loc);
      case '{': return make(Tok::LBrace, loc);
      case '}': return make(Tok::RBrace, loc);
      case '[': return make(Tok::LBracket, loc);
      case ']': return make(Tok::RBracket, loc);
      case ',': return make(Tok::Comma, loc);
      case ';': return make(Tok::Semi, loc);
      case ':': return make(Tok::Colon, loc);
      case '+': return make(Tok::Plus, loc);
      case '*': return make(Tok::Star, loc);
      case '/': return make(Tok::Slash, loc);
      case '%': return make(Tok::Percent, loc);
      case '-':
        if (peek() == '>') { advance(); return make(Tok::Arrow, loc); }
        return make(Tok::Minus, loc);
      case '<':
        if (peek() == '=') { advance(); return make(Tok::Le, loc); }
        return make(Tok::Lt, loc);
      case '>':
        if (peek() == '=') { advance(); return make(Tok::Ge, loc); }
        return make(Tok::Gt, loc);
      case '=':
        if (peek() == '=') { advance(); return make(Tok::EqEq, loc); }
        return make(Tok::Assign, loc);
      case '!':
        if (peek() == '=') { advance(); return make(Tok::NotEq, loc); }
        return make(Tok::Bang, loc);
      case '&':
        if (peek() == '&') { advance(); return make(Tok::AndAnd, loc); }
        break;
      case '|':
        if (peek() == '|') { advance(); return make(Tok::OrOr, loc); }
        break;
      default:
        break;
    }
    diags_.error(loc, std::string("unexpected character '") + c + "'");
    return next();
  }

  /// A numeric literal whose first digit was just consumed.
  Token number(SrcLoc loc) {
    const std::size_t start = pos_ - 1;
    bool isReal = false;
    while (isDigit(peek())) advance();
    if (peek() == '.' && isDigit(peek(1))) {
      isReal = true;
      advance();
      while (isDigit(peek())) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      char sign = peek(1);
      int digitAt = (sign == '+' || sign == '-') ? 2 : 1;
      if (isDigit(peek(digitAt))) {
        isReal = true;
        advance();  // e
        if (sign == '+' || sign == '-') advance();
        while (isDigit(peek())) advance();
      }
    }
    const char* first = src_.data() + start;
    const char* last = src_.data() + pos_;
    Token t = make(isReal ? Tok::RealLit : Tok::IntLit, loc);
    if (isReal) {
      // Correctly rounded, like strtod. Out of range, from_chars leaves the
      // value alone where strtod gives inf or 0: let strtod decide.
      if (std::from_chars(first, last, t.fval).ec == std::errc::result_out_of_range)
        t.fval = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (std::from_chars(first, last, t.ival).ec ==
               std::errc::result_out_of_range) {
      t.ival = std::numeric_limits<std::int64_t>::max();  // as strtoll saturates
    }
    return t;
  }

  std::string_view src_;
  DiagSink& diags_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int col_ = 1;
};

}  // namespace

std::vector<Token> lex(std::string_view src, DiagSink& diags) {
  return Lexer(src, diags).run();
}

}  // namespace pods::fe
