"""Property-based end-to-end roundtrips: arbitrary dirty contents survive a
Horus crash/recover cycle bit-exactly, and the secure controller stores any
payload faithfully."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import SystemConfig
from repro.core.system import SecureEpdSystem
from tests.conftest import examples

CONFIG = SystemConfig.scaled(512)

payloads = st.binary(min_size=64, max_size=64)
block_indices = st.integers(0, 2000)


@st.composite
def dirty_contents(draw):
    """A small map of distinct line addresses to payloads."""
    indices = draw(st.lists(block_indices, min_size=1, max_size=24,
                            unique=True))
    return {i * 64: draw(payloads) for i in indices}


class TestHorusRoundtripProperties:
    @given(contents=dirty_contents(),
           scheme=st.sampled_from(["horus-slm", "horus-dlm"]))
    @settings(max_examples=examples(30))
    def test_arbitrary_dirty_state_survives_crash(self, contents, scheme):
        system = SecureEpdSystem(CONFIG, scheme=scheme)
        system.hierarchy.restore_dirty(list(contents), list(contents.values()))
        system.crash(seed=1)
        system.recover()
        restored = {address: data
                    for address, data, _ in system.hierarchy.llc.lines()}
        assert restored == contents

    @given(contents=dirty_contents())
    @settings(max_examples=examples(20))
    def test_vault_never_stores_plaintext(self, contents):
        system = SecureEpdSystem(CONFIG, scheme="horus-slm")
        system.hierarchy.restore_dirty(list(contents), list(contents.values()))
        system.crash(seed=1)
        chv = system.drain_engine._chv
        vaulted = {system.nvm.peek(chv.data_address(i))
                   for i in range(len(contents))}
        assert not vaulted & set(contents.values())


class TestControllerRoundtripProperties:
    @given(contents=dirty_contents())
    @settings(max_examples=examples(20))
    def test_secure_writes_read_back(self, contents):
        from tests.test_secure_controller import make_controller
        controller = make_controller("lazy")
        for address, data in contents.items():
            controller.write(address, data)
        for address, data in contents.items():
            assert controller.read(address) == data
