/**
 * @file
 * Whole-file reads and CSV quoting, shared by the trace decoders, the
 * results and lint writers and the CLI.
 */

#ifndef PCSIM_SIM_FILE_IO_HH
#define PCSIM_SIM_FILE_IO_HH

#include <string>

namespace pcsim
{

/** Read all of @p path into @p out.
 *  @return nullptr on success, else why not: "cannot open for
 *  reading" or "read error". */
const char *readFile(const std::string &path, std::string &out);

/** @p s as one RFC-4180 CSV field: quoted, with doubled quotes, when
 *  it holds a comma, a quote or a line break. */
std::string csvField(const std::string &s);

} // namespace pcsim

#endif // PCSIM_SIM_FILE_IO_HH
