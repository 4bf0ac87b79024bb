#include "nn/checkpoint.h"

#include <cstdint>
#include <fstream>

#include "common/contracts.h"

namespace diffpattern::nn {

namespace {

constexpr char kMagic[] = "DPCKPT01";
constexpr std::size_t kMagicLen = 8;

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw std::runtime_error("checkpoint: truncated file");
  }
  return v;
}

/// Bytes from the read position to the end of the file.
std::uint64_t bytes_left(std::ifstream& in) {
  const auto here = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(here);
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

void save_checkpoint(const ParamRegistry& registry, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("checkpoint: cannot open for write: " + path);
  }
  out.write(kMagic, kMagicLen);
  write_u64(out, registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const std::string& name = registry.names()[i];
    const Tensor& value = registry.params()[i].value();
    write_u64(out, name.size());
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    write_u64(out, static_cast<std::uint64_t>(value.rank()));
    for (std::int64_t d = 0; d < value.rank(); ++d) {
      write_u64(out, static_cast<std::uint64_t>(value.dim(d)));
    }
    out.write(reinterpret_cast<const char*>(value.data()),
              static_cast<std::streamsize>(value.numel() * sizeof(float)));
  }
  if (!out) {
    throw std::runtime_error("checkpoint: write failed: " + path);
  }
}

void load_checkpoint(ParamRegistry& registry, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open for read: " + path);
  }
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  if (!in || std::string(magic, kMagicLen) != kMagic) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  const auto count = read_u64(in);
  DP_REQUIRE(count == registry.size(),
             "checkpoint: parameter count mismatch (file has " +
                 std::to_string(count) + ", registry has " +
                 std::to_string(registry.size()) + ")");
  for (std::size_t i = 0; i < count; ++i) {
    // Name length and rank are checked against the bytes left in the file
    // before anything is allocated for them.
    const auto name_len = read_u64(in);
    if (name_len > bytes_left(in)) {
      throw std::runtime_error("checkpoint: parameter " + std::to_string(i) +
                               " claims a " + std::to_string(name_len) +
                               "-byte name, more than the file holds");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    DP_REQUIRE(name == registry.names()[i],
               "checkpoint: parameter name mismatch at index " +
                   std::to_string(i) + ": file has '" + name +
                   "', registry has '" + registry.names()[i] + "'");
    const auto rank = read_u64(in);
    if (rank > bytes_left(in) / 8) {  // One u64 per dimension.
      throw std::runtime_error("checkpoint: " + name + " claims rank " +
                               std::to_string(rank) +
                               ", more than the file holds");
    }
    tensor::Shape shape(rank);
    for (auto& d : shape) {
      d = static_cast<std::int64_t>(read_u64(in));
    }
    Var param = registry.params()[i];
    DP_REQUIRE(shape == param.value().shape(),
               "checkpoint: shape mismatch for " + name);
    Tensor& value = param.mutable_value();
    in.read(reinterpret_cast<char*>(value.data()),
            static_cast<std::streamsize>(value.numel() * sizeof(float)));
    if (!in) {
      throw std::runtime_error("checkpoint: truncated data for " + name);
    }
  }
}

bool is_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  char magic[kMagicLen];
  in.read(magic, kMagicLen);
  return in && std::string(magic, kMagicLen) == kMagic;
}

}  // namespace diffpattern::nn
