//===- support/Json.h - Flat-JSON emit and field extraction ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JSON behind every journal record, spool file, wire frame and trace
/// line.  Objects are flat, with keys in a fixed order and no whitespace,
/// so equal values serialize to equal bytes and journals can be `cmp`ed.
/// Emitters need only jsonEscape and jsonDouble.  Readers match keys
/// literally, which is safe because we parse only what we emitted (plus
/// frames normalized by jsonStripWhitespace).  A scalar value is the
/// token up to the next ',', '}' or ']', parsed whole and strictly
/// (support/Numeric.h), so a garbled value keeps the caller's default.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SUPPORT_JSON_H
#define G80TUNE_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace g80 {

/// Escapes \p S as the body of a JSON string literal (quotes, backslash,
/// control characters).
std::string jsonEscape(std::string_view S);

/// Inverse of jsonEscape for the subset it emits.
std::string jsonUnescape(std::string_view S);

/// Formats \p V with %.17g: round-trip exact, locale-independent and
/// deterministic, so resumed sweeps rank configurations bit-identically.
std::string jsonDouble(double V);

/// Drops all whitespace outside string literals.  Frames from foreign
/// clients (python's json.dumps, pretty-printers) contain it; the field
/// readers below expect none between tokens.
std::string jsonStripWhitespace(std::string_view Json);

/// Field extraction from flat objects.  Each returns false, leaving
/// \p Out untouched, when the key is missing or its value is malformed.
bool jsonStringField(std::string_view Obj, std::string_view Key,
                     std::string &Out);
bool jsonUintField(std::string_view Obj, std::string_view Key, uint64_t &Out);
bool jsonDoubleField(std::string_view Obj, std::string_view Key, double &Out);
bool jsonBoolField(std::string_view Obj, std::string_view Key, bool &Out);
/// "key":[1,-2,3]; "key":[] is an empty list.
bool jsonIntArrayField(std::string_view Obj, std::string_view Key,
                       std::vector<int> &Out);
/// "key":["a","b"]; "key":[] is an empty list.
bool jsonStringArrayField(std::string_view Obj, std::string_view Key,
                          std::vector<std::string> &Out);

} // namespace g80

#endif // G80TUNE_SUPPORT_JSON_H
