// concealer_server: the framed-TCP front door as a process.
//
//   ./concealer_server --root=/var/lib/concealer --port=7433
//       [--bind=127.0.0.1] [--port-file=PATH] [--pool-threads=4]
//       [--allow-admin] [--demo-keys] [--idle-timeout-ms=N]
//       [--drain-grace-ms=N]
//
// Lifecycle contract (what the CI e2e smoke test pins down):
//  - On start, persistent tenants under --root are recovered via OpenAll;
//    with --demo-keys their credentials come from the deterministic demo
//    derivation (net/demo_keys.h) — the stand-in for the out-of-band key
//    channel. Without it, recovered directories stay closed until an
//    operator re-provisions over the admin plane.
//  - "listening on PORT" is printed (and --port-file written) once the
//    socket is bound: supervisors wait for that line, not a sleep.
//  - SIGTERM / SIGINT: graceful drain — stop accepting, finish in-flight
//    work, shed new requests with Unavailable + retry-after, checkpoint
//    every tenant's WAL, exit 0. kill -9 is the crash path: recovery is
//    the storage layer's problem, and the tests prove it handles it.

#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include <string>

#include "concealer/data_provider.h"
#include "net/demo_keys.h"
#include "net/server.h"
#include "service/tenant_registry.h"

namespace {

struct Flags {
  std::string root;
  std::string bind = "127.0.0.1";
  std::string port_file;
  uint16_t port = 0;
  uint32_t pool_threads = 4;
  uint64_t idle_timeout_ms = 0;
  uint64_t drain_grace_ms = 10'000;
  bool allow_admin = false;
  bool demo_keys = false;
};

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "root", &flags->root)) continue;
    if (ParseFlag(arg, "bind", &flags->bind)) continue;
    if (ParseFlag(arg, "port-file", &flags->port_file)) continue;
    if (ParseFlag(arg, "port", &value)) {
      flags->port = static_cast<uint16_t>(std::stoul(value));
      continue;
    }
    if (ParseFlag(arg, "pool-threads", &value)) {
      flags->pool_threads = static_cast<uint32_t>(std::stoul(value));
      continue;
    }
    if (ParseFlag(arg, "idle-timeout-ms", &value)) {
      flags->idle_timeout_ms = std::stoull(value);
      continue;
    }
    if (ParseFlag(arg, "drain-grace-ms", &value)) {
      flags->drain_grace_ms = std::stoull(value);
      continue;
    }
    if (arg == "--allow-admin") {
      flags->allow_admin = true;
      continue;
    }
    if (arg == "--demo-keys") {
      flags->demo_keys = true;
      continue;
    }
    std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
    return false;
  }
  if (flags->root.empty()) {
    std::fprintf(stderr,
                 "usage: concealer_server --root=DIR [--port=N] [--bind=ADDR]"
                 " [--port-file=PATH] [--pool-threads=N] [--allow-admin]"
                 " [--demo-keys] [--idle-timeout-ms=N] [--drain-grace-ms=N]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  // Route shutdown signals to the main thread's sigwait below; every
  // thread spawned after this (the event loop, pool workers) inherits the
  // block, so no handler races the drain.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  concealer::TenantRegistryOptions registry_options;
  registry_options.root_dir = flags.root;
  registry_options.pool_threads = flags.pool_threads;
  registry_options.service.reject_over_capacity = true;
  concealer::TenantRegistry registry(registry_options);

  // Recover whatever a previous process left under --root.
  concealer::Status recovered = registry.OpenAll(
      [&flags](const std::string& tenant_id)
          -> concealer::StatusOr<concealer::TenantRegistry::TenantCredentials> {
        if (!flags.demo_keys) {
          return concealer::Status::NotFound(
              "no out-of-band credentials for tenant '" + tenant_id +
              "' (run with --demo-keys or re-provision via admin plane)");
        }
        return concealer::TenantRegistry::TenantCredentials{
            concealer::net::DemoConfig(),
            concealer::net::DemoTenantSecret(tenant_id)};
      });
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery: %s\n", recovered.ToString().c_str());
    // Keep serving the healthy tenants; per-tenant state is visible on
    // the kHealth endpoint, which is how the e2e asserts it.
  }
  if (flags.demo_keys) {
    // The user registry travels with the (not persisted) provisioning
    // blob; demo mode re-derives and re-loads it so sessions work
    // immediately after a crash restart.
    for (const std::string& tenant_id : registry.TenantIds()) {
      concealer::DataProvider dp(
          concealer::net::DemoConfig(),
          concealer::net::DemoTenantSecret(tenant_id));
      concealer::Status registered = dp.RegisterUser(
          "demo", concealer::net::DemoUserSecret(tenant_id, "demo"), "");
      if (registered.ok()) {
        registered = registry.LoadRegistry(tenant_id, dp.EncryptedRegistry());
      }
      if (!registered.ok()) {
        std::fprintf(stderr, "demo registry for %s: %s\n", tenant_id.c_str(),
                     registered.ToString().c_str());
      }
    }
  }

  concealer::net::ServerOptions server_options;
  server_options.bind_address = flags.bind;
  server_options.port = flags.port;
  server_options.allow_admin = flags.allow_admin;
  server_options.idle_timeout_ms = flags.idle_timeout_ms;
  server_options.drain_grace_ms = flags.drain_grace_ms;
  concealer::net::ConcealerServer server(&registry, server_options);
  concealer::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!flags.port_file.empty()) {
    FILE* f = std::fopen(flags.port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --port-file\n");
      return 1;
    }
    std::fprintf(f, "%u\n", server.port());
    std::fclose(f);
  }
  std::printf("listening on %u\n", server.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "signal %d: draining\n", sig);
  concealer::Status drained = server.Drain();
  if (!drained.ok()) {
    std::fprintf(stderr, "drain: %s\n", drained.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "drained cleanly\n");
  return 0;
}
