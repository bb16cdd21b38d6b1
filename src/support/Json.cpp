//===- support/Json.cpp ---------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Numeric.h"

#include <cstdio>
#include <cstdlib>

using namespace g80;

std::string g80::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += char(C);
      }
    }
  }
  return Out;
}

std::string g80::jsonUnescape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] != '\\' || I + 1 == S.size()) {
      Out += S[I];
      continue;
    }
    switch (S[++I]) {
    case '"':
      Out += '"';
      break;
    case '\\':
      Out += '\\';
      break;
    case 'n':
      Out += '\n';
      break;
    case 'r':
      Out += '\r';
      break;
    case 't':
      Out += '\t';
      break;
    case 'u':
      if (I + 4 < S.size()) {
        unsigned V = unsigned(
            std::strtoul(std::string(S.substr(I + 1, 4)).c_str(), nullptr, 16));
        Out += char(V & 0xff);
        I += 4;
      }
      break;
    default:
      Out += S[I];
    }
  }
  return Out;
}

std::string g80::jsonDouble(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string g80::jsonStripWhitespace(std::string_view Json) {
  std::string Out;
  Out.reserve(Json.size());
  bool InString = false;
  for (size_t I = 0; I < Json.size(); ++I) {
    char C = Json[I];
    if (InString) {
      Out += C;
      if (C == '\\' && I + 1 < Json.size())
        Out += Json[++I];
      else if (C == '"')
        InString = false;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
      continue;
    Out += C;
    if (C == '"')
      InString = true;
  }
  return Out;
}

namespace {

/// Finds `"Key":` in \p Obj and returns the raw value text starting right
/// after the colon (up to the end of \p Obj).
bool fieldTail(std::string_view Obj, std::string_view Key,
               std::string_view &Tail) {
  std::string Needle(1, '"');
  Needle.append(Key).append("\":");
  size_t Pos = Obj.find(Needle);
  if (Pos == std::string_view::npos)
    return false;
  Tail = Obj.substr(Pos + Needle.size());
  return true;
}

/// The scalar value token of `"Key":`, up to the next ',', '}' or ']'.
bool scalarField(std::string_view Obj, std::string_view Key,
                 std::string_view &Token) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail))
    return false;
  Token = Tail.substr(0, Tail.find_first_of(",}]"));
  return true;
}

/// Reads the string literal opening at \p Text[I] into \p Out (unescaped)
/// and leaves \p I one past its closing quote.
bool scanString(std::string_view Text, size_t &I, std::string &Out) {
  if (I >= Text.size() || Text[I] != '"')
    return false;
  for (size_t J = I + 1; J < Text.size(); ++J) {
    if (Text[J] == '\\') {
      ++J;
      continue;
    }
    if (Text[J] == '"') {
      Out = jsonUnescape(Text.substr(I + 1, J - I - 1));
      I = J + 1;
      return true;
    }
  }
  return false;
}

} // namespace

bool g80::jsonStringField(std::string_view Obj, std::string_view Key,
                          std::string &Out) {
  std::string_view Tail;
  size_t I = 0;
  return fieldTail(Obj, Key, Tail) && scanString(Tail, I, Out);
}

bool g80::jsonUintField(std::string_view Obj, std::string_view Key,
                        uint64_t &Out) {
  std::string_view Token;
  if (!scalarField(Obj, Key, Token))
    return false;
  Expected<uint64_t> V = parseUint64(Token);
  if (!V)
    return false;
  Out = *V;
  return true;
}

bool g80::jsonDoubleField(std::string_view Obj, std::string_view Key,
                          double &Out) {
  std::string_view Token;
  if (!scalarField(Obj, Key, Token))
    return false;
  Expected<double> V = parseDouble(Token);
  if (!V)
    return false;
  Out = *V;
  return true;
}

bool g80::jsonBoolField(std::string_view Obj, std::string_view Key,
                        bool &Out) {
  std::string_view Token;
  if (!scalarField(Obj, Key, Token) || (Token != "true" && Token != "false"))
    return false;
  Out = Token == "true";
  return true;
}

bool g80::jsonIntArrayField(std::string_view Obj, std::string_view Key,
                            std::vector<int> &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail) || Tail.empty() || Tail[0] != '[')
    return false;
  size_t Close = Tail.find(']');
  if (Close == std::string_view::npos)
    return false;
  if (Close == 1) {
    Out.clear();
    return true;
  }
  Expected<std::vector<int>> V = parseIntList(Tail.substr(1, Close - 1));
  if (!V)
    return false;
  Out = V.takeValue();
  return true;
}

bool g80::jsonStringArrayField(std::string_view Obj, std::string_view Key,
                               std::vector<std::string> &Out) {
  std::string_view Tail;
  if (!fieldTail(Obj, Key, Tail) || Tail.empty() || Tail[0] != '[')
    return false;
  std::vector<std::string> Items;
  size_t I = 1;
  while (I < Tail.size() && Tail[I] != ']') {
    if (!Items.empty() && Tail[I++] != ',')
      return false;
    if (!scanString(Tail, I, Items.emplace_back()))
      return false;
  }
  if (I >= Tail.size())
    return false;
  Out = std::move(Items);
  return true;
}
