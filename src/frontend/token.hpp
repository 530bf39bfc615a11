// Token kinds for the IdLite declarative language.
//
// IdLite stands in for Id Nouveau (see DESIGN.md): a single-assignment
// declarative language with I-structure arrays, for/while loops with
// circulating ("carried") variables, conditionals, and functions. It keeps
// exactly the properties the PODS transformations rely on: single assignment,
// no aliasing, flow-only dependences.
#pragma once

#include <cstdint>
#include <string_view>

#include "support/diag.hpp"

namespace pods::fe {

enum class Tok {
  // literals & identifiers
  IntLit, RealLit, Ident,
  // keywords
  KwDef, KwInline, KwLet, KwNext, KwReturn, KwFor, KwTo, KwDownto, KwCarry,
  KwYield, KwLoop, KwWhile, KwIf, KwThen, KwElse,
  KwInt, KwReal, KwArray, KwMatrix,
  // punctuation
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semi, Colon, Arrow,
  // operators
  Assign,            // =
  Plus, Minus, Star, Slash, Percent,
  Lt, Le, Gt, Ge, EqEq, NotEq,
  AndAnd, OrOr, Bang,
  // end of input
  Eof,
};

const char* tokName(Tok t);

/// 32 bytes: the payload member in use follows from `kind`.
struct Token {
  Tok kind = Tok::Eof;
  SrcLoc loc;
  union {
    std::string_view text{};  // Ident: its spelling, a view into the source
    std::int64_t ival;        // IntLit
    double fval;              // RealLit
  };
};

}  // namespace pods::fe
