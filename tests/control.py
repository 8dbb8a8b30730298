"""Drive a :class:`~repro.core.controller.SnatchController` one settled
call at a time.

The controller only sends RPCs over its bus; the caller owns time.  A
unit test that wants to look at the devices after each control-plane
call builds the controller over a zero-delay bus and makes the call
through :func:`settled`.
"""

from repro.core.controller import SnatchController
from repro.core.rpc import RpcBus


def new_controller(seed=None):
    """A controller over a fresh zero-delay bus."""
    return SnatchController(RpcBus(default_delay_ms=0.0), seed=seed)


def settled(call, *args, **kwargs):
    """Run ``call`` (a bound controller method), then deliver every RPC
    it sent; a device that refused one raises :class:`RpcError`."""
    result = call(*args, **kwargs)
    call.__self__.bus.quiesce(raise_on_error=True)
    return result
