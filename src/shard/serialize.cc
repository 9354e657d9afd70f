#include "shard/serialize.h"

#include "sparse/serialize.h"
#include "tensor/serialize.h"

namespace sgnn::shard {

namespace {

// Both kinds of file are tensor/serialize.h frames (version 1, flags 0).
constexpr char kShardMagic[] = "SGSHRD01";
constexpr char kManifestMagic[] = "SGSHMF01";
constexpr uint32_t kVersion = 1;

void AppendIdList(const std::vector<int32_t>& ids, serialize::Writer* w) {
  w->PutI64(static_cast<int64_t>(ids.size()));
  for (const int32_t v : ids) w->PutI32(v);
}

Status ReadIdList(serialize::Reader* r, int64_t max_len,
                  std::vector<int32_t>* ids) {
  int64_t len = 0;
  SGNN_RETURN_IF_ERROR(r->I64(&len));
  if (len > max_len) {
    return Status::IOError("implausible id-list length in shard file");
  }
  SGNN_RETURN_IF_ERROR(r->CheckCount(len, sizeof(int32_t)));
  ids->resize(static_cast<size_t>(len));
  for (auto& v : *ids) SGNN_RETURN_IF_ERROR(r->I32(&v));
  return Status::OK();
}

serialize::Writer EncodeShard(const ShardSlice& slice) {
  serialize::Writer payload;
  AppendIdList(slice.owned, &payload);
  AppendIdList(slice.halo, &payload);
  sparse::AppendCsr(slice.local, &payload);
  return payload;
}

}  // namespace

std::string ShardFilePath(const std::string& prefix, int s) {
  return prefix + ".shard" + std::to_string(s);
}

std::string ManifestPath(const std::string& prefix) {
  return prefix + ".manifest";
}

Status SaveShardPlan(const ShardPlan& plan, const std::string& prefix) {
  serialize::Writer manifest;
  manifest.PutI32(plan.num_shards);
  manifest.PutI64(plan.n);
  manifest.PutU64(plan.options.seed);
  manifest.PutI64(plan.stats.total_edges);
  manifest.PutI64(plan.stats.cut_edges);
  for (int s = 0; s < plan.num_shards; ++s) {
    const serialize::Writer payload = EncodeShard(plan.slices[static_cast<size_t>(s)]);
    manifest.PutU32(serialize::Crc32(payload.buffer().data(), payload.size()));
    SGNN_RETURN_IF_ERROR(serialize::WriteFramedFile(
        ShardFilePath(prefix, s), kShardMagic, kVersion, 0, payload));
  }
  return serialize::WriteFramedFile(ManifestPath(prefix), kManifestMagic,
                                    kVersion, 0, manifest);
}

Status LoadShardPlan(const std::string& prefix, ShardPlan* plan) {
  SGNN_ASSIGN_OR_RETURN(serialize::FramedFile manifest,
                        serialize::ReadFramedFile(ManifestPath(prefix),
                                                  kManifestMagic, kVersion));
  serialize::Reader r = manifest.reader();
  ShardPlan loaded;
  SGNN_RETURN_IF_ERROR(r.I32(&loaded.num_shards));
  SGNN_RETURN_IF_ERROR(r.I64(&loaded.n));
  SGNN_RETURN_IF_ERROR(r.U64(&loaded.options.seed));
  SGNN_RETURN_IF_ERROR(r.I64(&loaded.stats.total_edges));
  SGNN_RETURN_IF_ERROR(r.I64(&loaded.stats.cut_edges));
  if (loaded.num_shards < 1 || loaded.n < 0) {
    return Status::IOError("implausible shard manifest header");
  }
  // One u32 CRC per shard follows.
  SGNN_RETURN_IF_ERROR(r.CheckCount(loaded.num_shards, sizeof(uint32_t)));
  loaded.options.num_shards = loaded.num_shards;
  loaded.slices.resize(static_cast<size_t>(loaded.num_shards));

  for (int s = 0; s < loaded.num_shards; ++s) {
    uint32_t expected_crc = 0;
    SGNN_RETURN_IF_ERROR(r.U32(&expected_crc));
    SGNN_ASSIGN_OR_RETURN(serialize::FramedFile shard_file,
                          serialize::ReadFramedFile(ShardFilePath(prefix, s),
                                                    kShardMagic, kVersion));
    if (shard_file.crc != expected_crc) {
      return Status::IOError("shard " + std::to_string(s) +
                             " does not match its manifest CRC (mixed or "
                             "stale shard set under " + prefix + ")");
    }
    ShardSlice& slice = loaded.slices[static_cast<size_t>(s)];
    serialize::Reader sr = shard_file.reader();
    SGNN_RETURN_IF_ERROR(ReadIdList(&sr, loaded.n, &slice.owned));
    SGNN_RETURN_IF_ERROR(ReadIdList(&sr, loaded.n, &slice.halo));
    SGNN_RETURN_IF_ERROR(sparse::ReadCsr(&sr, Device::kHost, &slice.local));
    if (slice.local.n() != slice.owned_count() + slice.halo_count()) {
      return Status::IOError("shard " + std::to_string(s) +
                             " slice dimension disagrees with its id maps");
    }
  }
  // Rebuild derived maps and validate the ownership invariant (the
  // SGNN_CHECKs in RefreshPlanDerived would abort on a corrupt-but-CRC-valid
  // plan, so re-verify softly first). The owned lists, which the files'
  // sizes bound, must add up to n before n sizes an allocation; n distinct
  // ids in [0, n) then own every node.
  int64_t owned = 0;
  for (const auto& slice : loaded.slices) owned += slice.owned_count();
  if (owned != loaded.n) {
    return Status::IOError("shard plan owns " + std::to_string(owned) +
                           " nodes, its manifest declares " +
                           std::to_string(loaded.n));
  }
  std::vector<uint8_t> seen(static_cast<size_t>(loaded.n), 0);
  for (const auto& slice : loaded.slices) {
    for (const int32_t g : slice.owned) {
      if (g < 0 || g >= loaded.n || seen[static_cast<size_t>(g)] != 0) {
        return Status::IOError("shard plan ownership invariant violated");
      }
      seen[static_cast<size_t>(g)] = 1;
    }
  }
  const EdgeCutStats stored = loaded.stats;
  RefreshPlanDerived(&loaded);
  loaded.stats.total_edges = stored.total_edges;
  loaded.stats.cut_edges = stored.cut_edges;
  *plan = std::move(loaded);
  return Status::OK();
}

}  // namespace sgnn::shard
