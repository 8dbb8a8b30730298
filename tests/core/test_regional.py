"""Regional deployments: per-region keys, rotation, global merge."""

import random

import pytest

from repro.core.aggswitch import AggSwitch
from repro.core.edge_service import SnatchEdgeServer
from repro.core.larkswitch import LarkSwitch
from repro.core.regional import RegionalDeployment
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.keys import derive_subkey


def _features():
    return [Feature.categorical("gender", ["f", "m", "x"])]


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _deployment():
    deployment = RegionalDeployment(seed=5)
    agg = AggSwitch("agg", random.Random(1))
    deployment.attach_agg_switch(agg)
    larks = {}
    for region in ("us", "eu"):
        lark = LarkSwitch("lark-%s" % region, random.Random(hash(region) % 97))
        deployment.attach_lark_switch(lark, region)
        larks[region] = lark
    return deployment, agg, larks


class TestDeployment:
    def test_regions_get_distinct_keys_and_app_ids(self):
        deployment, _agg, _larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        assert handle.key_for("us") != handle.key_for("eu")
        assert handle.app_id_for("us") != handle.app_id_for("eu")

    def test_keys_derive_from_one_master(self):
        """The developer holds one secret; regional keys are derived,
        deterministic, and labelled."""
        deployment, _agg, _larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        assert handle.key_for("us") == derive_subkey(
            handle.master_key, "region:us:epoch:0"
        )

    def test_regional_switch_only_decodes_own_region(self):
        deployment, _agg, larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        us_codec = TransportCookieCodec(
            handle.app_id_for("us"), handle.transport_schema,
            handle.key_for("us"), random.Random(2),
        )
        cid = us_codec.encode({"gender": "f"})
        assert larks["us"].process_quic_packet(cid).matched
        # The EU switch has no entry for the US app-ID.
        assert not larks["eu"].process_quic_packet(cid).matched

    def test_no_devices_rejected(self):
        deployment = RegionalDeployment(seed=1)
        deployment.attach_agg_switch(AggSwitch("agg", random.Random(1)))
        with pytest.raises(RuntimeError, match="regional devices"):
            deployment.deploy("ads", _features(), _specs())

    def test_duplicate_name_rejected(self):
        deployment, _agg, _larks = _deployment()
        deployment.deploy("ads", _features(), _specs())
        with pytest.raises(ValueError, match="already"):
            deployment.deploy("ads", _features(), _specs())

    def test_same_seed_same_deployment(self):
        first = _deployment()[0].deploy("ads", _features(), _specs())
        again = _deployment()[0].deploy("ads", _features(), _specs())
        assert again.master_key == first.master_key
        for region in ("us", "eu"):
            assert again.key_for(region) == first.key_for(region)
            assert again.app_id_for(region) == first.app_id_for(region)
        other = RegionalDeployment(seed=6)
        other.attach_lark_switch(LarkSwitch("lark", random.Random(1)), "us")
        assert other.deploy(
            "ads", _features(), _specs()
        ).master_key != first.master_key

    def test_region_names_sorted(self):
        deployment, _agg, _larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        assert deployment.regions() == handle.region_names() == ["eu", "us"]

    def test_each_tier_holds_what_its_region_needs(self):
        """Regional devices hold their own region's app-ID only; the
        global AggSwitch holds every region's."""
        deployment, agg, larks = _deployment()
        edges = {}
        for region in ("us", "eu"):
            edges[region] = SnatchEdgeServer(
                "edge-%s" % region, random.Random(7)
            )
            deployment.attach_edge_server(edges[region], region)
        handle = deployment.deploy("ads", _features(), _specs())
        for region in ("us", "eu"):
            own = [handle.app_id_for(region)]
            assert larks[region].registered_app_ids() == own
            assert edges[region].registered_app_ids() == own
        assert agg.registered_app_ids() == sorted(
            handle.app_id_for(r) for r in ("us", "eu")
        )


class TestGlobalMerge:
    def test_combined_report_sums_regions(self):
        deployment, agg, larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        for region, genders in (("us", ["f", "f", "m"]), ("eu", ["f", "x"])):
            codec = TransportCookieCodec(
                handle.app_id_for(region), handle.transport_schema,
                handle.key_for(region), random.Random(3),
            )
            for gender in genders:
                result = larks[region].process_quic_packet(
                    codec.encode({"gender": gender})
                )
                agg.process_packet(result.aggregation_payload)
        combined = deployment.combined_report("ads")
        assert combined["by_gender"]["f"] == 3
        assert combined["by_gender"]["m"] == 1
        assert combined["by_gender"]["x"] == 1


class TestRotation:
    def test_rotation_invalidates_old_epoch(self):
        deployment, _agg, larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        old_codec = TransportCookieCodec(
            handle.app_id_for("us"), handle.transport_schema,
            handle.key_for("us"), random.Random(4),
        )
        state = deployment.rotate_region("ads", "us")
        assert state.epoch == 1
        # Old-epoch cookies no longer match (new app-ID).
        stale = larks["us"].process_quic_packet(
            old_codec.encode({"gender": "f"})
        )
        assert not stale.matched
        # New-epoch cookies work.
        new_codec = TransportCookieCodec(
            handle.app_id_for("us"), handle.transport_schema,
            handle.key_for("us"), random.Random(5),
        )
        fresh = larks["us"].process_quic_packet(
            new_codec.encode({"gender": "f"})
        )
        assert fresh.matched

    def test_rotation_scoped_to_one_region(self):
        deployment, _agg, larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        eu_key_before = handle.key_for("eu")
        deployment.rotate_region("ads", "us")
        assert handle.key_for("eu") == eu_key_before
        eu_codec = TransportCookieCodec(
            handle.app_id_for("eu"), handle.transport_schema,
            handle.key_for("eu"), random.Random(6),
        )
        assert larks["eu"].process_quic_packet(
            eu_codec.encode({"gender": "m"})
        ).matched


class TestRotationEdges:
    def test_rotated_key_is_the_next_epoch_label(self):
        deployment, _agg, _larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        before = handle.key_for("us")
        state = deployment.rotate_region("ads", "us")
        assert state.key == handle.key_for("us") == derive_subkey(
            handle.master_key, "region:us:epoch:1"
        )
        assert state.key != before

    def test_many_rotations_never_reuse_a_key_or_app_id(self):
        deployment, _agg, _larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())
        keys = {handle.key_for("us"), handle.key_for("eu")}
        app_ids = {handle.app_id_for("us"), handle.app_id_for("eu")}
        for epoch in range(1, 8):
            state = deployment.rotate_region("ads", "us")
            assert state.epoch == epoch
            assert state.key not in keys
            assert state.app_id not in app_ids
            keys.add(state.key)
            app_ids.add(state.app_id)

    def test_unknown_region_or_application_raises(self):
        deployment, _agg, _larks = _deployment()
        deployment.deploy("ads", _features(), _specs())
        with pytest.raises(KeyError):
            deployment.rotate_region("ads", "apac")
        with pytest.raises(KeyError):
            deployment.rotate_region("clicks", "us")

    def test_old_epoch_revoked_on_every_tier(self):
        deployment, agg, larks = _deployment()
        edge = SnatchEdgeServer("edge-us", random.Random(7))
        deployment.attach_edge_server(edge, "us")
        handle = deployment.deploy("ads", _features(), _specs())
        old = handle.app_id_for("us")
        state = deployment.rotate_region("ads", "us")
        assert old not in agg.registered_app_ids()
        assert larks["us"].registered_app_ids() == [state.app_id]
        assert edge.registered_app_ids() == [state.app_id]

    def test_in_flight_old_epoch_payload_is_not_merged(self):
        """An aggregation packet minted before the rotation reaches an
        AggSwitch that no longer holds its app-ID: it is dropped, and
        the combined report counts new-epoch traffic only."""
        deployment, agg, larks = _deployment()
        handle = deployment.deploy("ads", _features(), _specs())

        def payload(gender, seed):
            codec = TransportCookieCodec(
                handle.app_id_for("us"), handle.transport_schema,
                handle.key_for("us"), random.Random(seed),
            )
            return larks["us"].process_quic_packet(
                codec.encode({"gender": gender})
            ).aggregation_payload

        in_flight = payload("f", 8)
        deployment.rotate_region("ads", "us")
        assert not agg.process_packet(in_flight).merged
        assert agg.process_packet(payload("m", 9)).merged
        assert deployment.combined_report("ads")["by_gender"] == {
            "f": 0, "m": 1, "x": 0,
        }

    def test_app_id_space_exhaustion(self):
        deployment = RegionalDeployment(seed=3)
        lark = LarkSwitch("lark", random.Random(1))
        deployment.attach_lark_switch(lark, "us")
        deployment.deploy("ads", _features(), _specs())
        for _ in range(255):
            deployment.rotate_region("ads", "us")
        with pytest.raises(RuntimeError, match="exhausted"):
            deployment.rotate_region("ads", "us")
