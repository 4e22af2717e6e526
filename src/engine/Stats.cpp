//===- engine/Stats.cpp ---------------------------------------------------===//

#include "engine/Stats.h"

#include <cstdio>
#include <cstring>

using namespace regel::engine;

std::string StatsSnapshot::toJson() const {
  std::string Out = "{";
  const char *Open = nullptr; // section of the previous key; "" = top level
  for (const StatRow &Row : StatRows) {
    if (!Row.Key)
      continue;
    if (Open && std::strcmp(Open, Row.Section) == 0) {
      Out += ',';
    } else {
      if (Open)
        Out += *Open ? "}," : ",";
      if (*Row.Section)
        Out.append("\"").append(Row.Section).append("\":{");
      Open = Row.Section;
    }
    Out.append("\"").append(Row.Key).append("\":");
    if (Row.U64) {
      Out += std::to_string(this->*Row.U64);
    } else {
      // Wide enough for any double: DBL_MAX has 309 integer digits.
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf), "%.*f",
                    Row.Kind == StatKind::MsTotal ? 1 : 2, this->*Row.Ms);
      Out += Buf;
    }
  }
  if (Open && *Open)
    Out += '}';
  Out += '}';
  return Out;
}
