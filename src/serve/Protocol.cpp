//===- serve/Protocol.cpp -------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Json.h"

#include <sstream>

using namespace g80;

namespace {

Diagnostic protoError(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

void putBool(std::ostringstream &OS, const char *Key, bool V) {
  OS << ",\"" << Key << "\":" << (V ? "true" : "false");
}

/// The request fields that tune, result and shard frames all carry, in
/// this order.
void putRequestFields(std::ostringstream &OS, const TuneRequest &R) {
  OS << ",\"app\":\"" << jsonEscape(R.App) << "\",\"machine\":\""
     << jsonEscape(R.Machine) << "\",\"strategy\":\"" << jsonEscape(R.Strategy)
     << "\",\"space\":\"" << jsonEscape(R.Space) << "\",\"seed\":" << R.Seed
     << ",\"budget\":" << R.Budget;
  putBool(OS, "fastbw", R.FastBw);
  putBool(OS, "lint", R.Lint);
}

/// Reads what putRequestFields writes into \p R; false when "app" is
/// missing.  Everything else is optional: absent or present-but-garbled
/// fields keep their defaults (the flat-JSON readers return false for
/// both), and pre-tier clients that omit "space" mean the small spaces.
bool readRequestFields(std::string_view Json, TuneRequest &R) {
  jsonStringField(Json, "machine", R.Machine);
  jsonStringField(Json, "strategy", R.Strategy);
  jsonStringField(Json, "space", R.Space);
  jsonUintField(Json, "seed", R.Seed);
  jsonUintField(Json, "budget", R.Budget);
  jsonBoolField(Json, "fastbw", R.FastBw);
  jsonBoolField(Json, "lint", R.Lint);
  return jsonStringField(Json, "app", R.App);
}

} // namespace

std::string g80::frameType(std::string_view Json) {
  std::string Type;
  jsonStringField(jsonStripWhitespace(Json), "type", Type);
  return Type;
}

//===--- TuneRequest ----------------------------------------------------------//

std::string TuneRequest::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"tune\"";
  putRequestFields(OS, *this);
  OS << ",\"deadline\":" << jsonDouble(DeadlineSeconds);
  putBool(OS, "wait", Wait);
  OS << "}";
  return OS.str();
}

Expected<TuneRequest> TuneRequest::fromJson(std::string_view Raw) {
  std::string Json = jsonStripWhitespace(Raw);
  TuneRequest R;
  if (!readRequestFields(Json, R) || R.App.empty())
    return protoError("tune request needs an \"app\" field");
  jsonDoubleField(Json, "deadline", R.DeadlineSeconds);
  jsonBoolField(Json, "wait", R.Wait);
  if (R.DeadlineSeconds < 0)
    return protoError("tune request \"deadline\" must be >= 0");
  return R;
}

//===--- TuneResult -----------------------------------------------------------//

std::string TuneResult::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"result\",\"id\":\"" << jsonEscape(Id) << "\"";
  putRequestFields(OS, Req);
  OS << ",\"status\":\"" << jsonEscape(Status) << "\"";
  if (!Error.empty())
    OS << ",\"error\":\"" << jsonEscape(Error) << "\"";
  OS << ",\"valid\":" << Valid << ",\"measured\":" << Measured
     << ",\"quarantined\":" << Quarantined << ",\"best\":\""
     << jsonEscape(Best) << "\",\"best_time\":" << jsonDouble(BestTime)
     << ",\"total_measured_seconds\":" << jsonDouble(TotalMeasuredSeconds)
     << "}";
  return OS.str();
}

Expected<TuneResult> TuneResult::fromJson(std::string_view Raw) {
  std::string Json = jsonStripWhitespace(Raw);
  TuneResult R;
  if (!jsonStringField(Json, "id", R.Id) ||
      !jsonStringField(Json, "status", R.Status) ||
      !readRequestFields(Json, R.Req))
    return protoError("malformed result frame");
  jsonStringField(Json, "error", R.Error);
  jsonUintField(Json, "valid", R.Valid);
  jsonUintField(Json, "measured", R.Measured);
  jsonUintField(Json, "quarantined", R.Quarantined);
  jsonStringField(Json, "best", R.Best);
  jsonDoubleField(Json, "best_time", R.BestTime);
  jsonDoubleField(Json, "total_measured_seconds", R.TotalMeasuredSeconds);
  return R;
}

//===--- ShardRequest ---------------------------------------------------------//

std::string ShardRequest::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"shard\"";
  putRequestFields(OS, Tune);
  OS << ",\"plan_fp\":" << PlanFp << ",\"shard\":" << ShardIndex
     << ",\"begin\":" << Begin << ",\"end\":" << End << "}";
  return OS.str();
}

Expected<ShardRequest> ShardRequest::fromJson(std::string_view Raw) {
  std::string Json = jsonStripWhitespace(Raw);
  ShardRequest R;
  if (!readRequestFields(Json, R.Tune) || R.Tune.App.empty())
    return protoError("shard request needs an \"app\" field");
  if (!jsonUintField(Json, "plan_fp", R.PlanFp))
    return protoError("shard request needs a \"plan_fp\" field");
  jsonUintField(Json, "shard", R.ShardIndex);
  jsonUintField(Json, "begin", R.Begin);
  if (!jsonUintField(Json, "end", R.End) || R.End < R.Begin)
    return protoError("shard request needs \"end\" >= \"begin\"");
  return R;
}

//===--- ShardResult ----------------------------------------------------------//

std::string ShardResult::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"shard_result\",\"shard\":" << ShardIndex
     << ",\"plan_fp\":" << PlanFp << ",\"begin\":" << Begin
     << ",\"end\":" << End << ",\"status\":\"" << jsonEscape(Status)
     << "\"";
  if (!Error.empty())
    OS << ",\"error\":\"" << jsonEscape(Error) << "\"";
  OS << ",\"records\":[";
  for (size_t I = 0; I < Records.size(); ++I)
    OS << (I ? "," : "") << "\"" << jsonEscape(Records[I]) << "\"";
  OS << "]}";
  return OS.str();
}

Expected<ShardResult> ShardResult::fromJson(std::string_view Raw) {
  std::string Json = jsonStripWhitespace(Raw);
  ShardResult R;
  if (!jsonStringField(Json, "status", R.Status))
    return protoError("malformed shard_result frame");
  jsonUintField(Json, "shard", R.ShardIndex);
  jsonUintField(Json, "plan_fp", R.PlanFp);
  jsonUintField(Json, "begin", R.Begin);
  jsonUintField(Json, "end", R.End);
  jsonStringField(Json, "error", R.Error);
  if (!jsonStringArrayField(Json, "records", R.Records) && R.completed())
    return protoError("shard_result frame has a malformed \"records\" "
                      "array");
  return R;
}

//===--- ServeStatus ----------------------------------------------------------//

std::string ServeStatus::toJson() const {
  std::ostringstream OS;
  OS << "{\"type\":\"status\",\"queue_depth\":" << QueueDepth
     << ",\"queue_limit\":" << QueueLimit << ",\"active\":" << Active
     << ",\"completed\":" << Completed << ",\"shed\":" << Shed
     << ",\"recovered\":" << Recovered << ",\"cache_hits\":" << CacheHits
     << ",\"cache_misses\":" << CacheMisses
     << ",\"cache_hit_rate\":" << jsonDouble(cacheHitRate())
     << ",\"shards_served\":" << ShardsServed
     << ",\"uptime_seconds\":" << jsonDouble(UptimeSeconds);
  putBool(OS, "draining", Draining);
  OS << "}";
  return OS.str();
}

Expected<ServeStatus> ServeStatus::fromJson(std::string_view Raw) {
  std::string Json = jsonStripWhitespace(Raw);
  ServeStatus S;
  if (!jsonUintField(Json, "queue_depth", S.QueueDepth))
    return protoError("malformed status frame");
  jsonUintField(Json, "queue_limit", S.QueueLimit);
  jsonUintField(Json, "active", S.Active);
  jsonUintField(Json, "completed", S.Completed);
  jsonUintField(Json, "shed", S.Shed);
  jsonUintField(Json, "recovered", S.Recovered);
  jsonUintField(Json, "cache_hits", S.CacheHits);
  jsonUintField(Json, "cache_misses", S.CacheMisses);
  jsonUintField(Json, "shards_served", S.ShardsServed);
  jsonDoubleField(Json, "uptime_seconds", S.UptimeSeconds);
  jsonBoolField(Json, "draining", S.Draining);
  return S;
}

//===--- Canned frames --------------------------------------------------------//

std::string g80::acceptedFrame(const std::string &Id) {
  return "{\"type\":\"accepted\",\"id\":\"" + jsonEscape(Id) + "\"}";
}

std::string g80::overloadedFrame(uint64_t QueueDepth, uint64_t QueueLimit) {
  std::ostringstream OS;
  OS << "{\"type\":\"overloaded\",\"error\":\"admission queue full\","
        "\"queue_depth\":"
     << QueueDepth << ",\"queue_limit\":" << QueueLimit << "}";
  return OS.str();
}

std::string g80::errorFrame(const std::string &Message) {
  return "{\"type\":\"error\",\"error\":\"" + jsonEscape(Message) + "\"}";
}

std::string g80::progressFrame(const std::string &Id, uint64_t Done,
                               uint64_t Total, uint64_t Quarantined) {
  std::ostringstream OS;
  OS << "{\"type\":\"progress\",\"id\":\"" << jsonEscape(Id)
     << "\",\"done\":" << Done << ",\"total\":" << Total
     << ",\"quarantined\":" << Quarantined << "}";
  return OS.str();
}

std::string g80::okFrame() { return "{\"type\":\"ok\"}"; }
