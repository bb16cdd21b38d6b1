//===- serve/Spool.cpp ----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Spool.h"

#include "support/Journal.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

using namespace g80;

namespace {

Diagnostic spoolError(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

std::string idForSeq(uint64_t Seq) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "req-%06llu",
                static_cast<unsigned long long>(Seq));
  return Buf;
}

/// "req-000123" -> 123; 0 when the name is not a request id.
uint64_t seqForId(const std::string &Id) {
  if (Id.size() < 5 || Id.compare(0, 4, "req-") != 0)
    return 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Id.c_str() + 4, &End, 10);
  return (End && *End == '\0') ? V : 0;
}

} // namespace

Expected<Spool> Spool::open(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return spoolError("cannot create spool directory '" + Dir +
                      "': " + Ec.message());
  Spool S;
  S.Dir = Dir;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file())
      continue;
    std::filesystem::path P = Entry.path();
    // Quarantined tickets ("<id>.job.bad") still reserve their id so a
    // restart never reissues it.
    if (P.extension() == ".bad")
      P = P.stem();
    if (P.extension() != ".job")
      continue;
    uint64_t Seq = seqForId(P.stem().string());
    S.NextId = std::max(S.NextId, Seq + 1);
  }
  if (Ec)
    return spoolError("cannot scan spool directory '" + Dir +
                      "': " + Ec.message());
  return S;
}

Expected<std::string> Spool::createTicket(const TuneRequest &Req) {
  std::string Id = idForSeq(NextId);
  Expected<Unit> W = writeFileDurable(ticketPath(Id), Req.toJson() + "\n");
  if (!W)
    return W.takeDiag();
  ++NextId;
  return Id;
}

Expected<Unit> Spool::writeResult(const std::string &Id,
                                  const std::string &ResultJson) {
  return writeFileDurable(resultPath(Id), ResultJson + "\n");
}

std::string Spool::shardJournalPath(uint64_t PlanFp,
                                    uint64_t ShardIndex) const {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "shard-%016llx-%06llu.journal",
                static_cast<unsigned long long>(PlanFp),
                static_cast<unsigned long long>(ShardIndex));
  return Dir + "/" + Buf;
}

Expected<std::vector<std::pair<std::string, TuneRequest>>>
Spool::recover(std::vector<std::string> *Quarantined) const {
  std::vector<std::pair<std::string, TuneRequest>> Pending;
  std::error_code Ec;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec)) {
    if (!Entry.is_regular_file())
      continue;
    std::filesystem::path P = Entry.path();
    if (P.extension() != ".job")
      continue;
    std::string Id = P.stem().string();
    if (seqForId(Id) == 0 || std::filesystem::exists(resultPath(Id)))
      continue;
    Expected<std::string> Text = readFile(P.string());
    Expected<TuneRequest> Req =
        Text ? TuneRequest::fromJson(*Text) : Text.takeDiag();
    if (!Req) {
      // A ticket torn by a mid-write crash must not take down recovery
      // of the healthy ones: quarantine it and move on.
      std::string Note = quarantineFile(
          P.string(), "quarantined corrupt spool ticket '" + P.string() +
                          "': " + Req.diag().Message);
      if (Quarantined)
        Quarantined->push_back(std::move(Note));
      continue;
    }
    Pending.emplace_back(Id, Req.takeValue());
  }
  if (Ec)
    return spoolError("cannot scan spool directory '" + Dir +
                      "': " + Ec.message());
  std::sort(Pending.begin(), Pending.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Pending;
}
