//===- bench/g80bench/ServerHost.cpp --------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "ServerHost.h"

using namespace g80;
using namespace g80bench;

ServerHost::ServerHost(ServeOptions O)
    : Opts(std::move(O)), Server(std::make_unique<TuneServer>(Opts)) {
  Expected<Unit> Started = Server->start();
  if (!Started) {
    Error = Started.diag().Message;
    return;
  }
  Loop = std::thread([this] { Server->serve(); });
}

ServerHost::~ServerHost() {
  Server->requestDrain();
  if (Loop.joinable())
    Loop.join();
}
