// kv_store — a small persistent key-value store through the cxlpmem facade,
// demonstrating pointer-rich persistent data structures (hash table with
// chained buckets) in the typed programming model: ptr<Entry> links,
// snapshot-on-write p<> fields, inline payloads, and typed iteration — no
// raw object ids, no unchecked casts.  This is the MOSIQS-style "persistent
// memory object storage" use-case the paper cites (§1.2, [31]).
//
// The hash table itself lives in service/durable_map.hpp — the SAME
// structure cxlpmemd serves over TCP, so the example and the daemon can
// never drift: what this program walks on disk is byte-for-byte what a
// redis-cli SET against the daemon produces.
//
// The store is generic over its backing: main() runs it on whichever
// namespace is named on the command line (default: the CXL-backed pmem2) —
// `kv_store work pmem0` runs byte-identical store code on emulated PMem.
//
//   $ kv_store [workdir] [namespace]
#include <cstdio>
#include <filesystem>
#include <string>

#include "api/cxlpmem.hpp"
#include "service/durable_map.hpp"

using namespace cxlpmem;

int main(int argc, char** argv) {
  const std::filesystem::path base =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path() / "cxlpmem-kv";
  const std::string ns = argc > 2 ? argv[2] : "pmem2";

  auto rt = api::RuntimeBuilder::setup_one().base_dir(base).build();
  if (!rt) {
    std::fprintf(stderr, "runtime: %s\n", rt.error().to_string().c_str());
    return 1;
  }

  const bool fresh = !rt->pool_exists(ns, "kv.pool").value_or(false);
  auto pool = rt->open_or_create_pool(ns, "kv", {.file = "kv.pool"});
  if (!pool) {
    std::fprintf(stderr, "pool on '%s': %s\n", ns.c_str(),
                 pool.error().to_string().c_str());
    return 1;
  }
  api::Pool p = std::move(pool).value();
  // Binding refuses a pool whose root is not this map's: another type, or
  // a map of another bucket layout (an older build's 256 buckets or FNV-1a
  // placement), which must be recreated.
  auto bound = api::wrap([&] { return service::DurableMap(p.pmem()); });
  if (!bound) {
    std::fprintf(stderr, "store on '%s': %s\n", ns.c_str(),
                 bound.error().to_string().c_str());
    return 1;
  }
  service::DurableMap store = std::move(bound).value();

  std::printf("%s store with %llu entries on /mnt/%s (%s)\n",
              fresh ? "created" : "reopened",
              static_cast<unsigned long long>(store.size()), ns.c_str(),
              to_string(p.space().domain).c_str());

  // Write a batch of experiment metadata, the way a workflow engine would.
  store.put("experiment", "stream-pmem-on-cxl");
  store.put("device", "agilex7-rtile");
  store.put("arrays", "3 x 100M doubles");
  store.put("run#" + std::to_string(store.size()), "ok");

  std::printf("get(experiment) = %s\n", store.get("experiment")->c_str());
  std::printf("get(device)     = %s\n", store.get("device")->c_str());
  std::printf("get(missing)    = %s\n",
              store.get("missing").has_value() ? "?!" : "(not found)");

  store.put("device", "agilex7-rtile-cxl-1.1");  // transactional overwrite
  std::printf("get(device)     = %s (after overwrite)\n",
              store.get("device")->c_str());

  const bool erased = store.erase("arrays");
  std::printf("erase(arrays)   = %s\n", erased ? "erased" : "missing");

  // A pipelined burst the way a cxlpmemd shard worker commits one: several
  // mutations folded into ONE transaction on one undo lane.
  p.run_tx([&] {
      store.put_in_tx("batch/a", "1");
      store.put_in_tx("batch/b", "2");
      store.erase_in_tx("batch/a");
    }).value();
  std::printf("batched tx      = a:%s b:%s (one commit)\n",
              store.exists("batch/a") ? "?!" : "gone",
              store.get("batch/b")->c_str());

  std::printf("entries: %llu by counter, %llu by typed iteration\n",
              static_cast<unsigned long long>(store.size()),
              static_cast<unsigned long long>(
                  p.count<service::DurableMap::Entry>()));
  std::printf("\nre-run me: the table persists and run# keys accumulate.\n"
              "re-run with namespace 'pmem0' to run the same store on"
              " emulated PMem.\n");
  return 0;
}
