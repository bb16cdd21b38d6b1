//===- support/Journal.h - Crash-safe write-ahead sweep journal -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A write-ahead journal for long sweeps: one fsync'd, checksummed JSONL
/// record per completed configuration evaluation, so a sweep killed at any
/// point — SIGKILL, OOM, power loss — can be resumed without re-measuring
/// anything that already finished.
///
/// File layout (text, one JSON object per line):
///
///   {"g80journal":1,"crc":"<fnv64 hex>","hdr":{...fingerprint...}}
///   {"crc":"<fnv64 hex>","rec":{...payload...}}
///   {"crc":"<fnv64 hex>","rec":{...payload...}}
///   ...
///
/// The checksum is FNV-1a 64 over the exact bytes of the embedded object.
/// The header fingerprints what produced the journal (app, machine,
/// strategy, seed, budget, space size, free-form extra); resume validates
/// it so a stale journal — different app, different seed, different
/// injection plan — is rejected instead of silently corrupting a sweep.
///
/// Torn-write semantics: a crash can leave a partial or checksum-failing
/// final line.  readJournal drops exactly that torn tail and reports it;
/// JournalWriter::append then truncates the file back to the last valid
/// record before continuing, so the journal is always a prefix of valid
/// records.  Corruption anywhere *before* the final record is a hard
/// error — that is damage, not a torn write.
///
/// This layer is payload-agnostic (records are opaque JSON strings); the
/// mapping to ConfigEval lives in core/EvalRecord.h so support does not
/// depend on core.
///
/// writeFileDurable, readFile and quarantineFile are the whole-file
/// operations of the serve spool (serve/Spool); the fleet coordinator
/// keeps no files of its own beyond its SweepDriver journal.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SUPPORT_JOURNAL_H
#define G80TUNE_SUPPORT_JOURNAL_H

#include "support/Json.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace g80 {

/// FNV-1a 64-bit over \p Bytes — the journal's record checksum, also
/// reusable wherever a cheap content fingerprint is needed.
uint64_t fnv1a64(std::string_view Bytes);

/// Fsyncs the directory containing \p Path, making a just-created (or
/// renamed) directory entry itself durable.  Syncing a new file's fd
/// flushes the file's *contents*, but the *name* lives in the parent
/// directory's data; without this a freshly created journal can vanish
/// entirely on power loss.  Best-effort no-op on platforms where
/// directories cannot be opened.
void fsyncParentDir(const std::string &Path);

/// Reads the whole of \p Path.
Expected<std::string> readFile(const std::string &Path);

/// Writes \p Content to \p Path via tmp + fsync + rename + parent-dir
/// fsync, so the file appears atomically and durably or not at all.  On
/// failure, a failed fsync or close included, the tmp file is removed and
/// \p Path keeps whatever it held before.
Expected<Unit> writeFileDurable(const std::string &Path,
                                std::string_view Content);

/// Renames a corrupt \p Path to `<Path>.bad`, so the evidence survives
/// and no later scan trips on it again.  Returns \p Note, plus the rename
/// failure if there was one.
std::string quarantineFile(const std::string &Path, std::string Note);

/// What produced a journal.  All fields participate in the resume
/// compatibility check.
struct JournalHeader {
  std::string App;      ///< TunableApp::name().
  std::string Machine;  ///< MachineModel::Name.
  std::string Strategy; ///< Search strategy name.
  uint64_t Seed = 0;    ///< Strategy seed (random/greedy).
  uint64_t Budget = 0;  ///< Strategy budget (random/greedy).
  uint64_t RawSize = 0; ///< ConfigSpace::rawSize() — cheap space check.
  /// Config-space tier ("small"/"large").  Older journals omit the field
  /// and read back as "small", which is what they were.
  std::string Space = "small";
  /// Anything else that changes measurement results (e.g. the --inject
  /// spec).  Free-form; compared byte-for-byte.
  std::string Extra;

  bool matches(const JournalHeader &Other) const {
    return App == Other.App && Machine == Other.Machine &&
           Strategy == Other.Strategy && Seed == Other.Seed &&
           Budget == Other.Budget && RawSize == Other.RawSize &&
           Space == Other.Space && Extra == Other.Extra;
  }

  std::string toJson() const;
  static Expected<JournalHeader> fromJson(std::string_view Json);
};

/// A fully validated journal read.
struct JournalContents {
  JournalHeader Header;
  /// The embedded payload JSON of every checksum-valid record, in file
  /// order.
  std::vector<std::string> Records;
  /// Byte offset of the end of the last valid line — where an appending
  /// writer must truncate to before continuing.
  uint64_t ValidBytes = 0;
  /// True when a torn final line was dropped (partial write at the kill
  /// point); resume treats this as normal.
  bool DroppedTornTail = false;
};

/// Reads and validates \p Path.  Fails on missing file, bad header, or
/// corruption before the final record; a torn final record is dropped and
/// reported instead.
Expected<JournalContents> readJournal(const std::string &Path);

/// Appends checksummed records to a journal file, flushing each through
/// the OS (fsync) so completed work survives any later crash.
class JournalWriter {
public:
  JournalWriter() = default;
  JournalWriter(JournalWriter &&Other) noexcept;
  JournalWriter &operator=(JournalWriter &&Other) noexcept;
  JournalWriter(const JournalWriter &) = delete;
  JournalWriter &operator=(const JournalWriter &) = delete;
  ~JournalWriter();

  /// Creates (or truncates) \p Path and writes and syncs the header line.
  static Expected<JournalWriter> create(const std::string &Path,
                                        const JournalHeader &Header);

  /// Opens \p Path for appending after a successful readJournal,
  /// truncating to \p ValidBytes first so a torn tail is never appended
  /// after.
  static Expected<JournalWriter> append(const std::string &Path,
                                        uint64_t ValidBytes);

  bool isOpen() const { return Fd >= 0; }

  /// Wraps \p PayloadJson (one JSON object, no newlines) in a checksummed
  /// record line, writes it, and syncs it to stable storage.  A failed
  /// sync is an error: the record may not survive a crash.
  Expected<Unit> appendRecord(std::string_view PayloadJson);

  /// Flushes and closes; further appends fail.  Idempotent.
  void close();

private:
  explicit JournalWriter(int Fd) : Fd(Fd) {}

  int Fd = -1;
};

} // namespace g80

#endif // G80TUNE_SUPPORT_JOURNAL_H
