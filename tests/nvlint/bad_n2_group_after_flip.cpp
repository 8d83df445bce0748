// nvlint corpus — N2: a write-back group AFTER the commit point's header
// flip. write_blocks persists every line it is given, so a group that
// trails the flip is a torn tail exactly like a trailing write_back.
#define CCNVM_COMMIT_POINT

struct Nvm {
  void write_back(unsigned long addr, unsigned long line);
  void write_blocks(const unsigned long* addrs, const unsigned long* lines);
};

unsigned long header_addr(int slot);
extern const unsigned long* value_addrs;
extern const unsigned long* value_lines;

CCNVM_COMMIT_POINT bool put(Nvm& nvm, int slot) {
  nvm.write_back(header_addr(slot), 1);
  nvm.write_blocks(value_addrs, value_lines);  // nvlint-expect(N2)
  return true;
}
