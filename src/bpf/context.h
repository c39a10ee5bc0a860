// Context descriptors: the typed view a policy program gets of its hook's
// argument struct.
//
// Each Concord hook (cmp_node, skip_shuffle, ...) passes the program a
// pointer to a plain C struct in R1. The verifier only admits loads/stores
// that land exactly on a declared field, with the declared width, and only
// stores to fields marked writable — this is the moral equivalent of the
// kernel's `is_valid_access` callback per program type.

#ifndef SRC_BPF_CONTEXT_H_
#define SRC_BPF_CONTEXT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/check.h"

namespace concord {

struct ContextField {
  std::string name;
  std::uint32_t offset = 0;
  std::uint32_t width = 0;  // 1, 2, 4 or 8
  bool writable = false;
};

class ContextDescriptor {
 public:
  // A set of fields is one word, bit i for fields()[i]
  // (Program::ctx_fields_read).
  static constexpr std::size_t kMaxFields = 64;

  ContextDescriptor(std::string name, std::uint32_t size,
                    std::vector<ContextField> fields)
      : name_(std::move(name)), size_(size), fields_(std::move(fields)) {
    CONCORD_CHECK(fields_.size() <= kMaxFields);
  }

  const std::string& name() const { return name_; }
  std::uint32_t size() const { return size_; }
  const std::vector<ContextField>& fields() const { return fields_; }

  // Returns the field covering [offset, offset+width) exactly, or nullptr.
  const ContextField* FindField(std::uint32_t offset, std::uint32_t width) const {
    for (const auto& field : fields_) {
      if (field.offset == offset && field.width == width) {
        return &field;
      }
    }
    return nullptr;
  }

 private:
  std::string name_;
  std::uint32_t size_;
  std::vector<ContextField> fields_;
};

}  // namespace concord

#endif  // SRC_BPF_CONTEXT_H_
