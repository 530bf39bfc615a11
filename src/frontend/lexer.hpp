// Hand-written lexer for IdLite.
#pragma once

#include <string_view>
#include <vector>

#include "frontend/token.hpp"
#include "support/diag.hpp"

namespace pods::fe {

/// Tokenizes the whole buffer. Lexical errors are reported to `diags` and the
/// offending characters skipped; the resulting stream always ends with Eof.
/// Identifier tokens view their spelling in `src`, which must outlive them.
std::vector<Token> lex(std::string_view src, DiagSink& diags);

}  // namespace pods::fe
