#include "labeler/label_codec.h"

#include <cstdint>
#include <utility>

#include "util/byte_codec.h"

namespace tasti::labeler {

namespace {

enum class LabelTag : uint8_t { kVideo = 0, kText = 1, kSpeech = 2 };

}  // namespace

void EncodeLabel(std::string* out, const data::LabelerOutput& label) {
  if (const auto* video = std::get_if<data::VideoLabel>(&label)) {
    Put<uint8_t>(out, static_cast<uint8_t>(LabelTag::kVideo));
    Put<uint32_t>(out, static_cast<uint32_t>(video->boxes.size()));
    for (const data::Box& box : video->boxes) {
      Put<uint8_t>(out, static_cast<uint8_t>(box.cls));
      Put<float>(out, box.x);
      Put<float>(out, box.y);
      Put<float>(out, box.w);
      Put<float>(out, box.h);
    }
    return;
  }
  if (const auto* text = std::get_if<data::TextLabel>(&label)) {
    Put<uint8_t>(out, static_cast<uint8_t>(LabelTag::kText));
    Put<uint8_t>(out, static_cast<uint8_t>(text->op));
    Put<int32_t>(out, text->num_predicates);
    return;
  }
  const auto& speech = std::get<data::SpeechLabel>(label);
  Put<uint8_t>(out, static_cast<uint8_t>(LabelTag::kSpeech));
  Put<uint8_t>(out, static_cast<uint8_t>(speech.gender));
  Put<int32_t>(out, speech.age_years);
}

bool DecodeLabel(const std::string& in, size_t* at,
                 data::LabelerOutput* label) {
  uint8_t tag = 0;
  if (!Get(in, at, &tag)) return false;
  switch (static_cast<LabelTag>(tag)) {
    case LabelTag::kVideo: {
      uint32_t count = 0;
      if (!Get(in, at, &count)) return false;
      data::VideoLabel video;
      video.boxes.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t cls = 0;
        data::Box box;
        if (!Get(in, at, &cls) || !Get(in, at, &box.x) ||
            !Get(in, at, &box.y) || !Get(in, at, &box.w) ||
            !Get(in, at, &box.h)) {
          return false;
        }
        box.cls = static_cast<data::ObjectClass>(cls);
        video.boxes.push_back(box);
      }
      *label = std::move(video);
      return true;
    }
    case LabelTag::kText: {
      uint8_t op = 0;
      int32_t preds = 0;
      if (!Get(in, at, &op) || !Get(in, at, &preds)) return false;
      data::TextLabel text;
      text.op = static_cast<data::SqlOp>(op);
      text.num_predicates = preds;
      *label = text;
      return true;
    }
    case LabelTag::kSpeech: {
      uint8_t gender = 0;
      int32_t age = 0;
      if (!Get(in, at, &gender) || !Get(in, at, &age)) return false;
      data::SpeechLabel speech;
      speech.gender = static_cast<data::Gender>(gender);
      speech.age_years = age;
      *label = speech;
      return true;
    }
  }
  return false;
}

}  // namespace tasti::labeler
