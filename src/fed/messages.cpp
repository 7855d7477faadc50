#include "src/fed/messages.h"

#include "src/obs/work.h"

namespace fms {
namespace {

void write_mask(ByteWriter& w, const Mask& m) {
  std::vector<std::int8_t> normal(m.normal.begin(), m.normal.end());
  std::vector<std::int8_t> reduce(m.reduce.begin(), m.reduce.end());
  w.write_vector(normal);
  w.write_vector(reduce);
}

Mask read_mask(ByteReader& r) {
  Mask m;
  auto normal = r.read_vector<std::int8_t>();
  auto reduce = r.read_vector<std::int8_t>();
  m.normal.assign(normal.begin(), normal.end());
  m.reduce.assign(reduce.begin(), reduce.end());
  return m;
}

}  // namespace

std::vector<std::uint8_t> SubmodelMsg::serialize() const {
  // The payload size, and so the cost, is known only after writing.
  obs::ScopedOp op("fed.encode");
  ByteWriter w;
  w.write(round);
  write_mask(w, mask);
  w.write_vector(values);
  std::vector<std::uint8_t> out = w.take();
  op.add_cost(obs::codec_cost(out.size()));
  return out;
}

SubmodelMsg SubmodelMsg::deserialize(const std::vector<std::uint8_t>& bytes) {
  FMS_OP("fed.decode", obs::codec_cost(bytes.size()));
  ByteReader r(bytes);
  SubmodelMsg msg;
  msg.round = r.read<int>();
  msg.mask = read_mask(r);
  msg.values = r.read_vector<float>();
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in SubmodelMsg");
  return msg;
}

std::size_t SubmodelMsg::byte_size() const { return serialize().size(); }

std::vector<std::uint8_t> UpdateMsg::serialize() const {
  obs::ScopedOp op("fed.encode");
  ByteWriter w;
  w.write(round);
  w.write(participant);
  w.write(reward);
  w.write(loss);
  write_mask(w, mask);
  w.write_vector(grads);
  std::vector<std::uint8_t> out = w.take();
  op.add_cost(obs::codec_cost(out.size()));
  return out;
}

UpdateMsg UpdateMsg::deserialize(const std::vector<std::uint8_t>& bytes) {
  FMS_OP("fed.decode", obs::codec_cost(bytes.size()));
  ByteReader r(bytes);
  UpdateMsg msg;
  msg.round = r.read<int>();
  msg.participant = r.read<int>();
  msg.reward = r.read<float>();
  msg.loss = r.read<float>();
  msg.mask = read_mask(r);
  msg.grads = r.read_vector<float>();
  FMS_CHECK_MSG(r.exhausted(), "trailing bytes in UpdateMsg");
  return msg;
}

std::size_t UpdateMsg::byte_size() const { return serialize().size(); }

}  // namespace fms
