//===- support/Journal.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Journal.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

using namespace g80;

uint64_t g80::fnv1a64(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

namespace {

Diagnostic journalError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

std::string crcHex(std::string_view Bytes) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Bytes)));
  return Buf;
}

constexpr std::string_view HeaderPrefix = "{\"g80journal\":1,\"crc\":\"";
constexpr std::string_view RecordPrefix = "{\"crc\":\"";

/// Validates one journal line: checks the wrapper shape and checksum, and
/// yields the embedded object text.  \p WantHeader selects which wrapper
/// is expected.
bool validateLine(std::string_view Line, bool WantHeader,
                  std::string &Payload) {
  std::string_view Prefix = WantHeader ? HeaderPrefix : RecordPrefix;
  std::string_view Tag = WantHeader ? "\",\"hdr\":" : "\",\"rec\":";
  if (Line.size() < Prefix.size() + 16 + Tag.size() + 3)
    return false;
  if (Line.substr(0, Prefix.size()) != Prefix)
    return false;
  std::string_view Crc = Line.substr(Prefix.size(), 16);
  std::string_view Rest = Line.substr(Prefix.size() + 16);
  if (Rest.substr(0, Tag.size()) != Tag)
    return false;
  std::string_view Obj = Rest.substr(Tag.size());
  if (Obj.empty() || Obj.back() != '}')
    return false;
  Obj.remove_suffix(1); // The wrapper's closing brace.
  if (crcHex(Obj) != Crc)
    return false;
  Payload = std::string(Obj);
  return true;
}

std::string wrapLine(std::string_view PayloadJson, bool IsHeader) {
  std::string Line(IsHeader ? HeaderPrefix : RecordPrefix);
  Line += crcHex(PayloadJson);
  Line += IsHeader ? "\",\"hdr\":" : "\",\"rec\":";
  Line += PayloadJson;
  Line += "}\n";
  return Line;
}

} // namespace

std::string JournalHeader::toJson() const {
  std::ostringstream OS;
  OS << "{\"app\":\"" << jsonEscape(App) << "\",\"machine\":\""
     << jsonEscape(Machine) << "\",\"strategy\":\"" << jsonEscape(Strategy)
     << "\",\"seed\":" << Seed << ",\"budget\":" << Budget
     << ",\"raw\":" << RawSize << ",\"space\":\"" << jsonEscape(Space)
     << "\",\"extra\":\"" << jsonEscape(Extra) << "\"}";
  return OS.str();
}

Expected<JournalHeader> JournalHeader::fromJson(std::string_view Json) {
  JournalHeader H;
  if (!jsonStringField(Json, "app", H.App) ||
      !jsonStringField(Json, "machine", H.Machine) ||
      !jsonStringField(Json, "strategy", H.Strategy) ||
      !jsonUintField(Json, "seed", H.Seed) ||
      !jsonUintField(Json, "budget", H.Budget) ||
      !jsonUintField(Json, "raw", H.RawSize) ||
      !jsonStringField(Json, "extra", H.Extra))
    return journalError("malformed journal header");
  // Pre-tier journals omit "space"; they were all small-tier sweeps.
  if (!jsonStringField(Json, "space", H.Space))
    H.Space = "small";
  return H;
}

Expected<std::string> g80::readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return journalError("cannot open '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string g80::quarantineFile(const std::string &Path, std::string Note) {
  std::error_code Ec;
  std::filesystem::rename(Path, Path + ".bad", Ec);
  if (Ec)
    Note += " (rename to .bad failed: " + Ec.message() + ")";
  return Note;
}

Expected<JournalContents> g80::readJournal(const std::string &Path) {
  Expected<std::string> File = readFile(Path);
  if (!File)
    return journalError("cannot open journal '" + Path + "'");
  const std::string &Text = *File;

  JournalContents Out;
  bool SawHeader = false;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    bool Terminated = Nl != std::string::npos;
    size_t End = Terminated ? Nl : Text.size();
    std::string_view Line(Text.data() + Pos, End - Pos);
    size_t NextPos = Terminated ? Nl + 1 : Text.size();
    bool IsLast = NextPos >= Text.size();

    std::string Payload;
    if (!validateLine(Line, /*WantHeader=*/!SawHeader, Payload)) {
      if (!SawHeader)
        return journalError("missing or corrupt journal header in '" + Path +
                            "'");
      if (!IsLast)
        return journalError("corrupt journal record before end of '" + Path +
                            "' (not a torn tail)");
      // Torn final record: the crash point.  Drop it and resume.
      Out.DroppedTornTail = true;
      return Out;
    }
    if (!SawHeader) {
      Expected<JournalHeader> H = JournalHeader::fromJson(Payload);
      if (!H)
        return H.takeDiag();
      Out.Header = H.takeValue();
      SawHeader = true;
    } else {
      Out.Records.push_back(std::move(Payload));
    }
    Out.ValidBytes = Terminated ? NextPos : Text.size();
    Pos = NextPos;
  }
  if (!SawHeader)
    return journalError("journal '" + Path + "' is empty");
  return Out;
}

//===--- JournalWriter --------------------------------------------------------//

JournalWriter::JournalWriter(JournalWriter &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)) {}

JournalWriter &JournalWriter::operator=(JournalWriter &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
  }
  return *this;
}

JournalWriter::~JournalWriter() { close(); }

#ifndef _WIN32

void g80::fsyncParentDir(const std::string &Path) {
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? std::string(".")
                    : Slash == 0               ? std::string("/")
                                               : Path.substr(0, Slash);
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd < 0)
    return;
  ::fsync(Fd);
  ::close(Fd);
}

/// \p What failed; errno says why.
static Diagnostic ioError(const std::string &What) {
  return journalError(What + " failed: " + std::strerror(errno));
}

/// Writes all of \p Bytes; false, with errno set, on failure.
static bool writeAll(int Fd, std::string_view Bytes) {
  size_t Done = 0;
  while (Done < Bytes.size()) {
    ssize_t N = ::write(Fd, Bytes.data() + Done, Bytes.size() - Done);
    if (N < 0)
      return false;
    Done += size_t(N);
  }
  return true;
}

Expected<Unit> g80::writeFileDurable(const std::string &Path,
                                     std::string_view Content) {
  std::string Tmp = Path + ".tmp";
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return ioError("create '" + Tmp + "'");
  Expected<Unit> W = Unit{};
  if (!writeAll(Fd, Content))
    W = ioError("write to '" + Tmp + "'");
  else if (::fsync(Fd) != 0)
    W = ioError("fsync of '" + Tmp + "'");
  if (::close(Fd) != 0 && W)
    W = ioError("close of '" + Tmp + "'");
  if (W && std::rename(Tmp.c_str(), Path.c_str()) != 0)
    W = ioError("rename to '" + Path + "'");
  if (!W) {
    ::unlink(Tmp.c_str());
    return W;
  }
  fsyncParentDir(Path);
  return Unit{};
}

Expected<JournalWriter> JournalWriter::create(const std::string &Path,
                                              const JournalHeader &Header) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return journalError("cannot create journal '" + Path +
                        "': " + std::strerror(errno));
  JournalWriter W(Fd);
  if (!writeAll(Fd, wrapLine(Header.toJson(), /*IsHeader=*/true)))
    return ioError("journal write");
  if (::fsync(Fd) != 0)
    return ioError("fsync of journal '" + Path + "'");
  // The file's contents are durable, but its directory entry is not until
  // the parent directory is synced too — without this a freshly created
  // journal can vanish wholesale on power loss.
  fsyncParentDir(Path);
  return W;
}

Expected<JournalWriter> JournalWriter::append(const std::string &Path,
                                              uint64_t ValidBytes) {
  int Fd = ::open(Path.c_str(), O_WRONLY, 0644);
  if (Fd < 0)
    return journalError("cannot open journal '" + Path +
                        "': " + std::strerror(errno));
  // Cut off any torn tail so the file stays a prefix of valid records.
  if (::ftruncate(Fd, off_t(ValidBytes)) != 0) {
    std::string Err = std::strerror(errno);
    ::close(Fd);
    return journalError("cannot truncate journal '" + Path + "': " + Err);
  }
  if (::lseek(Fd, 0, SEEK_END) < 0) {
    ::close(Fd);
    return journalError("cannot seek journal '" + Path + "'");
  }
  return JournalWriter(Fd);
}

Expected<Unit> JournalWriter::appendRecord(std::string_view PayloadJson) {
  if (Fd < 0)
    return journalError("journal writer is closed");
  if (!writeAll(Fd, wrapLine(PayloadJson, /*IsHeader=*/false)))
    return ioError("journal write");
  // The durability point: once this returns, the record survives SIGKILL,
  // OOM, and power loss.
#ifdef __linux__
  if (::fdatasync(Fd) != 0)
    return ioError("journal fdatasync");
#else
  if (::fsync(Fd) != 0)
    return ioError("journal fsync");
#endif
  return Unit{};
}

void JournalWriter::close() {
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
    Fd = -1;
  }
}

#else // _WIN32 — stdio fallback without durability guarantees.

void g80::fsyncParentDir(const std::string &) {}

Expected<Unit> g80::writeFileDurable(const std::string &Path,
                                     std::string_view Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out.write(Content.data(), std::streamsize(Content.size())))
    return journalError("cannot write '" + Path + "'");
  return Unit{};
}

Expected<JournalWriter> JournalWriter::create(const std::string &Path,
                                              const JournalHeader &Header) {
  (void)Path;
  (void)Header;
  return journalError("journal is not supported on this platform");
}

Expected<JournalWriter> JournalWriter::append(const std::string &Path,
                                              uint64_t ValidBytes) {
  (void)Path;
  (void)ValidBytes;
  return journalError("journal is not supported on this platform");
}

Expected<Unit> JournalWriter::appendRecord(std::string_view PayloadJson) {
  (void)PayloadJson;
  return journalError("journal is not supported on this platform");
}

void JournalWriter::close() {}

#endif
