//===- bench/serve_load.cpp - tune serve throughput/latency benchmark --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Drives the tune serve daemon with ramped concurrent client load and
// reports requests/second, p50 and tail latency, the saturation point,
// and the overload shed rate.  The tail is the highest percentile (at
// most p99) with at least ten requests beyond it, so a short stage never
// reports a "p99" that is really its maximum.  By default it hosts a
// TuneServer in-process (ephemeral loopback TCP, spool under a temp
// dir); with --socket PATH it drives an externally started daemon
// instead — that is the CI smoke mode.
//
// Emits machine-readable JSON (default BENCH_serve.json) for the CI
// perf artifact.
//
// Flags:
//   --out PATH      JSON output path (default BENCH_serve.json)
//   --socket PATH   drive an external daemon on this Unix socket instead
//                   of hosting one in-process
//   --seconds S     duration of each load stage (default 2)
//   --tiny          CI smoke: 0.5-second stages
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Numeric.h"
#include "support/Statistics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace g80;

namespace {

struct StageResult {
  unsigned Clients = 0;
  uint64_t Completed = 0;
  uint64_t Shed = 0;
  uint64_t Errors = 0;
  double Seconds = 0;
  double Rps = 0;
  double P50Ms = 0;
  /// Tail percentile and its latency; TailPct is 0 (and the JSON says
  /// null) when no percentile has ten requests beyond it.
  unsigned TailPct = 0;
  double TailMs = 0;
  double ShedRate = 0;
};

/// The highest whole percentile, capped at 99, that leaves at least ten
/// of \p Samples beyond it; 0 when there is none.
unsigned tailPercentile(size_t Samples) {
  if (Samples <= 10)
    return 0;
  return unsigned(std::min<size_t>(99, 100 * (Samples - 10) / Samples));
}

/// One load stage: \p Clients concurrent connections, each looping
/// wait-mode random-strategy requests until the stage deadline.
StageResult runStage(const std::string &SocketPath, uint16_t Port,
                     unsigned Clients, double Seconds) {
  StageResult R;
  R.Clients = Clients;
  std::mutex M;
  std::vector<double> Latencies;
  std::atomic<uint64_t> Completed{0}, Shed{0}, Errors{0};
  auto T0 = std::chrono::steady_clock::now();
  auto Deadline = T0 + std::chrono::duration<double>(Seconds);

  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != Clients; ++C) {
    Threads.emplace_back([&, C] {
      Expected<ServeClient> Client = ServeClient::connect(SocketPath, Port);
      if (!Client) {
        Errors.fetch_add(1);
        return;
      }
      uint64_t Seq = 0;
      while (std::chrono::steady_clock::now() < Deadline) {
        TuneRequest Req;
        Req.App = "matmul";
        Req.Strategy = "random";
        Req.Budget = 2;
        Req.Seed = 1 + (uint64_t(C) << 16) + Seq++;
        Req.Wait = true;
        auto S0 = std::chrono::steady_clock::now();
        Expected<std::string> Reply = Client->submit(Req, 30);
        if (!Reply) {
          Errors.fetch_add(1);
          break;
        }
        std::string Type = frameType(*Reply);
        if (Type == "overloaded") {
          Shed.fetch_add(1);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        if (Type != "accepted") {
          Errors.fetch_add(1);
          continue;
        }
        Expected<std::string> Result = Client->awaitResult(60);
        if (!Result || frameType(*Result) != "result") {
          Errors.fetch_add(1);
          break;
        }
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - S0)
                        .count();
        Completed.fetch_add(1);
        std::lock_guard<std::mutex> L(M);
        Latencies.push_back(Ms);
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  R.Seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  R.Completed = Completed.load();
  R.Shed = Shed.load();
  R.Errors = Errors.load();
  R.Rps = R.Seconds > 0 ? double(R.Completed) / R.Seconds : 0;
  uint64_t Attempts = R.Completed + R.Shed;
  R.ShedRate = Attempts ? double(R.Shed) / double(Attempts) : 0;
  SampleStats S;
  for (double Ms : Latencies)
    S.add(Ms);
  if (!S.empty())
    R.P50Ms = S.median();
  R.TailPct = tailPercentile(S.count());
  if (R.TailPct)
    R.TailMs = S.quantile(R.TailPct / 100.0);
  return R;
}

/// Burst-submits \p Count no-wait requests on one connection to measure
/// the backpressure response: the queue bound admits some and sheds the
/// rest with an "overloaded" frame.
void overloadProbe(const std::string &SocketPath, uint16_t Port,
                   unsigned Count, uint64_t &Accepted, uint64_t &Shed) {
  Accepted = Shed = 0;
  Expected<ServeClient> Client = ServeClient::connect(SocketPath, Port);
  if (!Client)
    return;
  for (unsigned I = 0; I != Count; ++I) {
    TuneRequest Req;
    Req.App = "matmul";
    Req.Strategy = "random";
    Req.Budget = 1;
    Req.Seed = 7000 + I;
    Expected<std::string> Reply = Client->submit(Req, 30);
    if (!Reply)
      return;
    std::string Type = frameType(*Reply);
    if (Type == "accepted")
      ++Accepted;
    else if (Type == "overloaded")
      ++Shed;
  }
}

std::string fmtDouble(double V) {
  std::ostringstream OS;
  OS << V;
  return OS.str();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_serve.json";
  std::string ExternalSocket;
  double StageSeconds = 2.0;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--out") && I + 1 < Argc)
      OutPath = Argv[++I];
    else if (!std::strcmp(Argv[I], "--socket") && I + 1 < Argc)
      ExternalSocket = Argv[++I];
    else if (!std::strcmp(Argv[I], "--seconds") && I + 1 < Argc) {
      Expected<double> V = parseDouble(Argv[++I]);
      if (!V || *V <= 0) {
        std::cerr << "error: --seconds wants a positive number, got '"
                  << Argv[I] << "'\n";
        return 2;
      }
      StageSeconds = *V;
    } else if (!std::strcmp(Argv[I], "--tiny"))
      StageSeconds = 0.5;
  }

  std::ofstream Out(OutPath);
  if (!Out) {
    std::cerr << "error: cannot write " << OutPath << "\n";
    return 1;
  }
  if (!socketsSupported()) {
    Out << "{\"bench\":\"serve_load\",\"sockets_supported\":false}\n";
    std::cout << "serve_load: sockets unsupported on this platform; "
                 "emitted stub\n";
    return 0;
  }

  // Host the daemon in-process unless pointed at an external one.  A
  // small queue bound makes the overload probe actually shed.
  uint64_t QueueLimit = 4;
  std::unique_ptr<TuneServer> Server;
  std::thread ServeThread;
  uint16_t Port = 0;
  std::string SpoolDir;
  if (ExternalSocket.empty()) {
    SpoolDir = (std::filesystem::temp_directory_path() /
                "g80_serve_load_spool")
                   .string();
    std::filesystem::remove_all(SpoolDir);
    ServeOptions SO;
    SO.TcpPort = 0;
    SO.SpoolDir = SpoolDir;
    SO.QueueLimit = QueueLimit;
    SO.Executors = 2;
    SO.Jobs = 2;
    Server = std::make_unique<TuneServer>(SO);
    Expected<Unit> Started = Server->start();
    if (!Started) {
      std::cerr << "error: " << Started.diag().Message << "\n";
      return 1;
    }
    Port = Server->port();
    ServeThread = std::thread([&] { Server->serve(); });
  } else {
    // Report the external daemon's actual bound, not our default.
    Expected<ServeClient> Probe = ServeClient::connect(ExternalSocket, 0);
    if (!Probe) {
      std::cerr << "error: cannot connect to " << ExternalSocket << ": "
                << Probe.diag().Message << "\n";
      return 1;
    }
    Expected<ServeStatus> S = Probe->status(10);
    if (S)
      QueueLimit = S->QueueLimit;
  }

  const unsigned Ramp[] = {1, 2, 4, 8};
  std::vector<StageResult> Stages;
  for (unsigned Clients : Ramp) {
    StageResult R = runStage(ExternalSocket, Port, Clients, StageSeconds);
    std::cout << "clients=" << R.Clients << " rps=" << R.Rps
              << " requests=" << R.Completed << " p50=" << R.P50Ms << "ms";
    if (R.TailPct)
      std::cout << " p" << R.TailPct << "=" << R.TailMs << "ms";
    std::cout << " shed_rate=" << R.ShedRate << " errors=" << R.Errors
              << "\n";
    Stages.push_back(R);
  }

  // Saturation: the first ramp stage where requests were shed or where
  // doubling the clients bought < 10% more throughput.
  unsigned Saturation = 0;
  for (size_t I = 0; I < Stages.size(); ++I) {
    if (Stages[I].Shed > 0 ||
        (I > 0 && Stages[I].Rps < Stages[I - 1].Rps * 1.10)) {
      Saturation = Stages[I].Clients;
      break;
    }
  }

  uint64_t ProbeAccepted = 0, ProbeShed = 0;
  overloadProbe(ExternalSocket, Port, unsigned(QueueLimit) + 12,
                ProbeAccepted, ProbeShed);
  std::cout << "overload probe: accepted=" << ProbeAccepted
            << " shed=" << ProbeShed << "\n";

  if (Server) {
    Expected<ServeClient> Client = ServeClient::connect("", Port);
    if (Client)
      (void)Client->shutdown(30);
    ServeThread.join();
    std::error_code Ec;
    std::filesystem::remove_all(SpoolDir, Ec);
  }

  Out << "{\n  \"bench\": \"serve_load\",\n"
      << "  \"sockets_supported\": true,\n"
      << "  \"external_daemon\": "
      << (ExternalSocket.empty() ? "false" : "true") << ",\n"
      << "  \"queue_limit\": " << QueueLimit << ",\n"
      << "  \"stage_seconds\": " << fmtDouble(StageSeconds) << ",\n"
      << "  \"stages\": [\n";
  for (size_t I = 0; I < Stages.size(); ++I) {
    const StageResult &R = Stages[I];
    Out << "    {\"clients\": " << R.Clients
        << ", \"completed\": " << R.Completed << ", \"shed\": " << R.Shed
        << ", \"errors\": " << R.Errors
        << ", \"rps\": " << fmtDouble(R.Rps)
        << ", \"p50_ms\": " << fmtDouble(R.P50Ms)
        << ", \"tail_pct\": " << R.TailPct
        << ", \"tail_ms\": " << (R.TailPct ? fmtDouble(R.TailMs) : "null")
        << ", \"shed_rate\": " << fmtDouble(R.ShedRate) << "}"
        << (I + 1 < Stages.size() ? "," : "") << "\n";
  }
  Out << "  ],\n"
      << "  \"saturation_clients\": " << Saturation << ",\n"
      << "  \"overload_probe\": {\"submitted\": " << (QueueLimit + 12)
      << ", \"accepted\": " << ProbeAccepted
      << ", \"shed\": " << ProbeShed << ", \"shed_rate\": "
      << fmtDouble(double(ProbeShed) / double(QueueLimit + 12)) << "}\n"
      << "}\n";
  std::cout << "wrote " << OutPath << "\n";

  bool AnyErrors = false;
  for (const StageResult &R : Stages)
    AnyErrors |= R.Errors != 0;
  return AnyErrors ? 1 : 0;
}
