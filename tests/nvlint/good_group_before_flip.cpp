// nvlint corpus — clean: the value extent goes as one write-back group,
// then ONE header write-back commits the operation. Mirrors
// store/kv_store.cpp put(); N2 accepts this ordering.
#define CCNVM_COMMIT_POINT

struct Nvm {
  void write_back(unsigned long addr, unsigned long line);
  void write_blocks(const unsigned long* addrs, const unsigned long* lines);
};

unsigned long header_addr(int slot);
unsigned long encode_header(int slot);
extern const unsigned long* value_addrs;
extern const unsigned long* value_lines;

int live_entries = 0;

CCNVM_COMMIT_POINT bool put(Nvm& nvm, int slot) {
  nvm.write_blocks(value_addrs, value_lines);
  nvm.write_back(header_addr(slot), encode_header(slot));
  live_entries = live_entries + 1;
  return true;
}
