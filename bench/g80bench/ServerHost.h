//===- bench/g80bench/ServerHost.h - An in-process tune serve daemon ------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_SERVERHOST_H
#define G80BENCH_SERVERHOST_H

#include "serve/Server.h"

#include <memory>
#include <string>
#include <thread>

namespace g80bench {

/// A TuneServer and the thread running its accept loop.  The destructor
/// drains the server and joins the thread.
class ServerHost {
public:
  explicit ServerHost(g80::ServeOptions Opts);
  ~ServerHost();
  ServerHost(const ServerHost &) = delete;
  ServerHost &operator=(const ServerHost &) = delete;

  /// Empty when the server started.
  const std::string &error() const { return Error; }
  uint16_t port() const { return Server->port(); }

private:
  g80::ServeOptions Opts;
  std::unique_ptr<g80::TuneServer> Server;
  std::string Error;
  std::thread Loop; ///< Declared last: it uses Server.
};

} // namespace g80bench

#endif // G80BENCH_SERVERHOST_H
