import pytest

from quadrics.quadform import _KERNELS


@pytest.fixture
def kernel_blocks(monkeypatch):
    """wrap(slot, call=None): from here on, the kernel in that slot of each
    space whose slot is still empty is called as call(kernel, block) (plainly
    by default), and every block it is called on is appended to the list
    wrap returns."""
    def wrap(slot, call=lambda kernel, block: kernel(block)):
        blocks = []
        build = _KERNELS[slot]

        def wrapped(space):
            kernel = build(space)

            def recorded(block):
                blocks.append(block)
                return call(kernel, block)
            return recorded

        monkeypatch.setitem(_KERNELS, slot, wrapped)
        return blocks
    return wrap
